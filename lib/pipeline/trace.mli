(** Dynamic instruction trace: the bridge between architectural
    execution (addresses, faults, data-dependent events) and the timing
    simulation that replays it against pipeline resources.

    Split into a per-static-instruction part (decomposition, packed uop
    codes, dependence roots), built once per block position and shared
    by every unrolled copy, and a dynamic part in flat int arrays read
    off the executor's {!Xsem.Step_log}: step [i] runs block position
    [i mod n], and its loads and stores are ranges of the load and store
    arrays. Building a trace allocates those arrays and nothing per
    step; the core reads them without allocating. *)

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

(** A trace of [steps] dynamic instructions. Addresses are native ints,
    as the step log records them. *)
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
  store_start : int array;  (** as [load_start], for stores *)
  store_paddr : int array;
  store_size : int array;
  store_vaddr : int array;
}

(** The static info of one instruction under a uarch's flat tables. *)
val build_static : Uarch.Flat.t -> X86.Inst.t -> static_info

(** Build the dynamic trace of a completed execution under
    microarchitecture [d]; instructions are laid out consecutively, as
    the unrolled benchmark body is. *)
val of_steps : Uarch.Descriptor.t -> Xsem.Step_log.t -> t

(** Static info of step [i]. *)
val static : t -> int -> static_info

(** Byte offset of step [i] in the code stream. *)
val code_addr : t -> int -> int
