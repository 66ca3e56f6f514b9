(** Dynamic instruction trace: the bridge between architectural execution
    (which determines addresses, faults and data-dependent events) and the
    timing simulation (which replays the trace against pipeline
    resources).

    The trace is split into a per-static-instruction part — decomposition,
    packed uop codes, dependence roots — computed once per block position
    and shared by every unrolled copy, and a dynamic part carrying only
    what truly varies per execution: addresses and events. The dynamic
    part is flat int arrays read off the executor's {!Xsem.Step_log}:
    step [i] runs the static info at block position [i mod n], and its
    loads and stores are ranges of the load and store arrays. Building it
    allocates those arrays and nothing per step. *)

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

type t = {
  statics : static_info array;  (** per block position *)
  offsets : int array;  (** code byte offset of each block position in a copy *)
  block_bytes : int;  (** code bytes of one copy *)
  steps : int;
  subnormal : bool array;  (** per step: FP op touched subnormals *)
  div_lat : int array;
      (** per step: effective div/idiv latency given the observed
          execution path; 0 for every other instruction *)
  load_start : int array;
      (** step [i]'s loads are [load_start.(i)] to [load_start.(i + 1) - 1] *)
  load_paddr : int array;
  load_size : int array;
  load_vaddr : int array;  (** virtual addresses (for split detection) *)
  store_start : int array;
  store_paddr : int array;
  store_size : int array;
  store_vaddr : int array;
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

(** Build the dynamic trace of a completed execution, recorded in [log],
    under microarchitecture [d]. Instructions are laid out consecutively,
    as the unrolled benchmark body is. *)
let of_steps (d : Uarch.Descriptor.t) (log : Xsem.Step_log.t) : t =
  let module L = Xsem.Step_log in
  let flat = Uarch.Descriptor.flat d in
  let statics = Array.map (build_static flat) (L.block log) in
  let n = Array.length statics in
  let offsets = Array.make n 0 and block_bytes = ref 0 in
  Array.iteri
    (fun k s ->
      offsets.(k) <- !block_bytes;
      block_bytes := !block_bytes + s.s_code_len)
    statics;
  let steps = L.steps log and accesses = L.accesses log in
  let stores = ref 0 in
  for a = 0 to accesses - 1 do
    if L.is_store log a then incr stores
  done;
  let loads = accesses - !stores and stores = !stores in
  let t =
    {
      statics;
      offsets;
      block_bytes = !block_bytes;
      steps;
      subnormal = Array.make steps false;
      div_lat = Array.make steps 0;
      load_start = Array.make (steps + 1) 0;
      load_paddr = Array.make loads 0;
      load_size = Array.make loads 0;
      load_vaddr = Array.make loads 0;
      store_start = Array.make (steps + 1) 0;
      store_paddr = Array.make stores 0;
      store_size = Array.make stores 0;
      store_vaddr = Array.make stores 0;
    }
  in
  let l = ref 0 and s = ref 0 in
  for i = 0 to steps - 1 do
    t.load_start.(i) <- !l;
    t.store_start.(i) <- !s;
    for a = L.first_access log i to L.first_access log (i + 1) - 1 do
      if L.is_store log a then begin
        t.store_paddr.(!s) <- L.paddr log a;
        t.store_size.(!s) <- L.size log a;
        t.store_vaddr.(!s) <- L.vaddr log a;
        incr s
      end
      else begin
        t.load_paddr.(!l) <- L.paddr log a;
        t.load_size.(!l) <- L.size log a;
        t.load_vaddr.(!l) <- L.vaddr log a;
        incr l
      end
    done;
    let events = L.events log i in
    t.subnormal.(i) <- events land L.bit L.Subnormal <> 0;
    let st = statics.(i mod n) in
    if st.s_is_int_div then
      t.div_lat.(i) <-
        (if events land L.bit L.Div_slow_path <> 0 then flat.Uarch.Flat.div64_latency
         else if Width.equal st.s_inst.width Width.Q then
           (* 64-bit divide with zeroed rdx: faster than the wide path but
              slower than the 32-bit divide *)
           flat.Uarch.Flat.divq_latency
         else flat.Uarch.Flat.div32_latency)
  done;
  t.load_start.(steps) <- !l;
  t.store_start.(steps) <- !s;
  t

let static t i = t.statics.(i mod Array.length t.statics)

let code_addr t i =
  let n = Array.length t.statics in
  (i / n * t.block_bytes) + t.offsets.(i mod n)
