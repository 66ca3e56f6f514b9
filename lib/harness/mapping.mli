(** The monitor/measure page-mapping algorithm (paper, Figure 2): run the
    unrolled block from re-initialised registers and flags, intercept
    each page fault, map the page, restart; give up on unmappable
    addresses or when the fault budget is exhausted. Restarts do not
    re-fill memory: what earlier attempts stored stays in the frames. *)

type failure =
  | Unmappable_address of int64
      (** fault address outside the user-space mappable range *)
  | Too_many_faults of int
  | Arithmetic_fault  (** division by zero: the process dies with SIGFPE *)
  | Mapping_disabled of int64
      (** a fault occurred while running in [No_mapping] mode *)

val failure_to_string : failure -> string

type success = {
  mmu : Memsim.Mmu.t;  (** with all touched pages mapped *)
  steps : Xsem.Step_log.t;
      (** the final, complete execution, recorded into [run]'s [?log]
          when one is given, else into a log this success owns *)
  faults : int;  (** mappings the monitor had to create *)
  distinct_frames : int;  (** 1 under single-physical-page aliasing *)
}

(** [run env block ~unroll] maps and executes [unroll] copies of
    [block] under [env]'s mapping mode. Every attempt records into
    [log] when it is given, which is emptied first and holds the final
    run afterwards; a caller that reuses one log across calls allocates
    no step log per call. Without [log], each call records into a fresh
    one. *)
val run :
  ?log:Xsem.Step_log.t ->
  Environment.t ->
  X86.Inst.t list ->
  unroll:int ->
  (success, failure) result
