(** Dynamic instruction trace: the bridge between architectural
    execution (addresses, faults, data-dependent events) and the timing
    simulation that replays it against pipeline resources.

    A trace is a per-static-instruction part (decomposition, packed uop
    codes, dependence roots, code offset, divide latency), built once
    per block position and shared by every unrolled copy, plus the
    executor's {!Xsem.Step_log}, which it reads in place: step [i] runs
    block position [i mod n], and its loads, stores and events are the
    log's. Building a trace allocates per block position and nothing per
    step, and the core reads it without allocating.

    The per-step readers (a step's accesses, the access fields with
    their 8-bytes-at-0 default, the subnormal and slow-divide bits) are
    in [Core], next to the cycle loop and the verdict that call them:
    they read the log's arrays directly, so a step read is a field load,
    not a call across modules.

    {b Validity.} Nothing is copied out of the log, so a trace is valid
    only while its log is unchanged: recording another run into the log
    (or [unpack]ing into it) silently changes what the trace reads, and
    may replace the log's arrays, which is why the readers load them
    from the log at every read instead of keeping them. A
    log that [Harness.Mapping.run] returns without [?log] is owned by
    its result; the log that [Harness.Mapping_memo.map] or [run] returns,
    hit or miss, is the log its caller passed, which stays unchanged
    until the next [map] or [run] into it, so build and simulate the
    trace before mapping into that log again. *)

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

(** A trace of [steps] dynamic instructions, read from [log]. *)
type t = {
  statics : static_info array;  (** per block position *)
  offsets : int array;  (** code byte offset of each block position in a copy *)
  block_bytes : int;  (** code bytes of one copy *)
  steps : int;
  log : Xsem.Step_log.t;  (** the execution's accesses and events *)
  pos_div_lat : int array;
      (** per block position, not per step: the div/idiv latency off
          the slow path; 0 for every other instruction. A step's
          latency is [Core.div_latency]. *)
  slow_div_lat : int;  (** the div/idiv latency on the slow path *)
}

(** The static info of one instruction under a uarch's flat tables. *)
val build_static : Uarch.Flat.t -> X86.Inst.t -> static_info

(** The trace of the completed execution recorded in [log], under
    microarchitecture [d]; instructions are laid out consecutively, as
    the unrolled benchmark body is. The trace reads [log] in place. *)
val of_steps : Uarch.Descriptor.t -> Xsem.Step_log.t -> t

(** Static info of step [i]. *)
val static : t -> int -> static_info

(** Byte offset of step [i] in the code stream. *)
val code_addr : t -> int -> int
