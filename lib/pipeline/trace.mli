(** Dynamic instruction trace: the bridge between architectural
    execution (addresses, faults, data-dependent events) and the timing
    simulation that replays it against pipeline resources.

    Split into a per-static-instruction part (decomposition, packed uop
    codes, dependence roots — shared by every unrolled copy) and a thin
    dynamic part carrying only what varies per execution. *)

(** Preprocessed static instruction: everything derivable from the
    instruction and the microarchitecture alone. *)
type static_info = {
  s_inst : X86.Inst.t;
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

(** Build the dynamic trace of a completed execution under
    microarchitecture [d]; instructions are laid out consecutively, as
    the unrolled benchmark body is. *)
val of_steps : Uarch.Descriptor.t -> Xsem.Executor.step list -> dyn_inst list

val total_uops : dyn_inst list -> int
