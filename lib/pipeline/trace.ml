(** Dynamic instruction trace: the bridge between architectural execution
    (which determines addresses, faults and data-dependent events) and the
    timing simulation (which replays the trace against pipeline
    resources).

    A trace is a per-static-instruction part — decomposition, packed uop
    codes, dependence roots, code offset and divide latency — computed
    once per block position and shared by every unrolled copy, plus the
    executor's {!Xsem.Step_log}, which it reads in place: step [i] runs
    the static info at block position [i mod n], and its loads, stores
    and events are the log's, which [Core] reads in place. Building a
    trace allocates per block position and nothing per step; it is
    valid while its log is unchanged. *)

open X86
module L = Xsem.Step_log

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
  log : Xsem.Step_log.t;  (** the execution's accesses and events, read in place *)
  pos_div_lat : int array;
      (** per block position: the div/idiv latency off the slow path;
          0 for every other instruction *)
  slow_div_lat : int;  (** the div/idiv latency on the slow path *)
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

(** The trace of the execution recorded in [log], under
    microarchitecture [d]. Instructions are laid out consecutively, as
    the unrolled benchmark body is. The trace reads [log] in place, so it
    is valid while [log] is unchanged. *)
let of_steps (d : Uarch.Descriptor.t) (log : L.t) : t =
  let flat = Uarch.Descriptor.flat d in
  let statics = Array.map (build_static flat) log.block in
  let offsets = Array.make (Array.length statics) 0 and block_bytes = ref 0 in
  Array.iteri
    (fun k s ->
      offsets.(k) <- !block_bytes;
      block_bytes := !block_bytes + s.s_code_len)
    statics;
  let pos_div_lat =
    Array.map
      (fun st ->
        if not st.s_is_int_div then 0
        else if Width.equal st.s_inst.width Width.Q then
          (* 64-bit divide with zeroed rdx: faster than the wide path but
             slower than the 32-bit divide *)
          flat.Uarch.Flat.divq_latency
        else flat.Uarch.Flat.div32_latency)
      statics
  in
  {
    statics;
    offsets;
    block_bytes = !block_bytes;
    steps = log.steps;
    log;
    pos_div_lat;
    slow_div_lat = flat.Uarch.Flat.div64_latency;
  }

let static t i = t.statics.(i mod Array.length t.statics)

let code_addr t i =
  let n = Array.length t.statics in
  (i / n * t.block_bytes) + t.offsets.(i mod n)
