(** Dynamic instruction trace: the bridge between architectural execution
    (which determines addresses, faults and data-dependent events) and the
    timing simulation (which replays the trace against pipeline
    resources).

    The trace is split into a per-static-instruction part — decomposition,
    packed uop codes, dependence roots — computed once per distinct
    instruction and shared by every unrolled copy, and a thin dynamic part
    carrying only what truly varies per execution (addresses, events).
    Under the profiler's unroll factors this removes ~99% of the decode
    work the simulator used to repeat per dynamic instruction. *)

open X86

(** Preprocessed static instruction: everything derivable from the
    instruction bytes and the microarchitecture alone. Shared across
    unrolled copies. *)
type static_info = {
  s_inst : Inst.t;
  s_code_len : int;
  s_decomp : Uarch.Uop.decomp;
  s_codes : int array;
      (** int-packed uops ({!Uarch.Flat} layout): port mask, kind,
          latency — the cycle loop reads only this *)
  s_uops : Uarch.Uop.t array;  (** [s_decomp.uops] as an array (schedule recording) *)
  s_n_uops : int;
  s_fused_slots : int;
  s_eliminated : bool;
  s_zero_idiom : bool;
  s_reads : int array;  (** dependence-root indices read (registers) *)
  s_writes : int array;
  s_addr_roots : int array;  (** roots feeding address generation *)
  s_reads_flags : bool;
  s_writes_flags : bool;
  s_is_divider : bool;  (** occupies the unpipelined divider *)
  s_is_int_div : bool;  (** div/idiv: latency resolved from the trace *)
}

type dyn_inst = {
  static : static_info;
  static_index : int;  (** index within the (unrolled) static stream *)
  code_addr : int;  (** byte offset of the instruction in the code stream *)
  loads : (int64 * int) array;  (** physical address and size per load *)
  stores : (int64 * int) array;
  load_vaddrs : int64 array;  (** virtual addresses (for split detection) *)
  store_vaddrs : int64 array;
  subnormal : bool;  (** FP op touched subnormals (gradual underflow) *)
  div_lat : int;
      (** effective div/idiv latency given the observed execution path;
          0 for every other instruction *)
}

let build_static (flat : Uarch.Flat.t) (inst : Inst.t) : static_info =
  let decomp, codes = Uarch.Flat.decompose_packed flat inst in
  let addr_roots =
    List.concat_map
      (fun (op : Operand.t) ->
        match op with
        | Operand.Mem m ->
          List.map (fun r -> Reg.root_index (Reg.root r)) (Operand.mem_regs m)
        | _ -> [])
      inst.operands
  in
  {
    s_inst = inst;
    s_code_len = Encoder.encoded_length inst;
    s_decomp = decomp;
    s_codes = codes;
    s_uops = Array.of_list decomp.uops;
    s_n_uops = List.length decomp.uops;
    s_fused_slots = decomp.fused_slots;
    s_eliminated = decomp.eliminated;
    s_zero_idiom = Inst.is_zero_idiom inst;
    s_reads = Array.of_list (List.map Reg.root_index (Inst.read_roots inst));
    s_writes = Array.of_list (List.map Reg.root_index (Inst.write_roots inst));
    s_addr_roots = Array.of_list addr_roots;
    s_reads_flags = Opcode.reads_flags inst.opcode;
    s_writes_flags = Opcode.writes_flags inst.opcode;
    s_is_divider = Uarch.Flat.is_divider flat inst.opcode;
    s_is_int_div = Uarch.Flat.is_int_div flat inst.opcode;
  }

(** Build the dynamic trace for a completed execution of [steps] under
    microarchitecture [d]. Instructions are laid out consecutively, as
    the unrolled benchmark body is; static preprocessing is computed once
    per distinct instruction (unrolled copies share it). *)
let of_steps (d : Uarch.Descriptor.t) (steps : Xsem.Executor.step list) :
    dyn_inst list =
  let flat = Uarch.Descriptor.flat d in
  (* keyed structurally: unrolled copies share the instruction values
     physically, and structurally equal instructions decompose
     identically, so sharing their static info is sound either way *)
  let statics : (Inst.t, static_info) Hashtbl.t = Hashtbl.create 64 in
  let static_of inst =
    match Hashtbl.find_opt statics inst with
    | Some s -> s
    | None ->
      let s = build_static flat inst in
      Hashtbl.add statics inst s;
      s
  in
  (* Byte offsets for the full dynamic stream. *)
  let offset = ref 0 in
  List.map
    (fun (s : Xsem.Executor.step) ->
      let st = static_of s.inst in
      let addr = !offset in
      offset := !offset + st.s_code_len;
      let loads, stores =
        List.partition (fun (a : Memsim.Mmu.access) -> not a.is_store) s.accesses
      in
      let div_lat =
        if not st.s_is_int_div then 0
        else if List.mem Xsem.Semantics.Div_slow_path s.events then
          flat.Uarch.Flat.div64_latency
        else if Width.equal s.inst.width Width.Q then
          (* 64-bit divide with zeroed rdx: faster than the wide path but
             slower than the 32-bit divide *)
          flat.Uarch.Flat.divq_latency
        else flat.Uarch.Flat.div32_latency
      in
      {
        static = st;
        static_index = s.index;
        code_addr = addr;
        loads = Array.of_list (List.map (fun (a : Memsim.Mmu.access) -> (a.paddr, a.size)) loads);
        stores = Array.of_list (List.map (fun (a : Memsim.Mmu.access) -> (a.paddr, a.size)) stores);
        load_vaddrs = Array.of_list (List.map (fun (a : Memsim.Mmu.access) -> a.vaddr) loads);
        store_vaddrs = Array.of_list (List.map (fun (a : Memsim.Mmu.access) -> a.vaddr) stores);
        subnormal = List.mem Xsem.Semantics.Subnormal s.events;
        div_lat;
      })
    steps

let total_uops trace =
  List.fold_left (fun acc di -> acc + di.static.s_n_uops) 0 trace
