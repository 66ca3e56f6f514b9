(** A simulated machine: one microarchitecture core plus its L1D, L1I
    and unified L2 caches. Cache contents persist across [run] calls
    until [reset], mirroring warm-up behaviour on real hardware. The
    machine also owns the simulator's reusable scratch state, so
    repeated [run] calls perform no per-simulation machine-state
    allocation. *)

type t = {
  descriptor : Uarch.Descriptor.t;
  l1d : Memsim.Cache.t;
  l1i : Memsim.Cache.t;
  l2 : Memsim.Cache.t;  (** unified second level *)
  scratch : Core.Scratch.t;
}

val create : Uarch.Descriptor.t -> t

(** Flush all three caches. *)
val reset : t -> unit

(** Build the dynamic trace of [steps] under the machine's descriptor.
    Its build time counts towards [pipeline.sim_ns], so a caller that
    simulates one trace several times pays, and accounts, one build. The
    trace reads [steps] in place: it is valid while [steps] is
    unchanged ({!Trace}). *)
val trace : t -> Xsem.Step_log.t -> Trace.t

(** Simulate the timing of one completed architectural execution, given
    as its trace; deterministic given the machine state. The trace is
    not modified, so it can be simulated again. *)
val simulate : ?record_schedule:bool -> t -> Trace.t -> Core.result

(** Warm the caches with [trace]: make exactly the cache accesses
    [simulate] would, with no timing ({!Core.warm}), leaving L1D, L1I
    and L2 as a discarded simulation would. Counts as one simulated
    block in [pipeline.blocks] and adds its time to [pipeline.sim_ns],
    so a measure point (warm-up, then timed run) counts two blocks. *)
val warm : t -> Trace.t -> unit

(** [trace] followed by [simulate]. *)
val run : ?record_schedule:bool -> t -> Xsem.Step_log.t -> Core.result

(** The calling domain's machine for [d], created on first use and
    reused afterwards (keyed by descriptor physical identity). Domains
    never share one, so its mutable scratch state needs no lock. Call
    [reset] before a run that must not see earlier runs' caches. *)
val for_descriptor : Uarch.Descriptor.t -> t
