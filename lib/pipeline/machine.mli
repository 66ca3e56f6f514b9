(** A simulated machine: one microarchitecture core plus its L1D, L1I
    and unified L2 caches. Cache contents persist across simulations
    until [reset], mirroring warm-up behaviour on real hardware: a
    measure point's warm-up is one such simulation, its result
    discarded ([measure]). The machine also owns the simulator's
    reusable scratch state, so repeated [simulate] calls perform no
    per-simulation machine-state allocation.

    A resident timed run can also return the result of its first steps
    ([measure ~prefix]), which is exactly what a measure point of a log
    holding just those steps returns: the profiler takes a small unroll
    point from its large point's run this way ([prefix_point]), counted
    as a measure point of its own.

    Every descriptor's machine gets the same caches: two 32 KiB 8-way
    L1s and a 256 KiB 8-way L2, all with 64-byte lines. So whether a
    step log fits L1 ([fits_l1]) depends on the log alone, and one
    verdict serves the log's measure points on every uarch. If
    descriptors ever get caches of their own, the verdict must be keyed
    by cache geometry as well as by log. *)

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

(** The L1 residency verdict on [steps]: would the warm-up simulation
    of [steps]'s trace, under any descriptor, from flushed caches, leave
    every L1I and L1D line it touches resident ({!Core.fits_l1})? It
    walks scratch L1s of the machines' geometry, kept per domain, and
    adds its time to [pipeline.sim_ns]. *)
val fits_l1 : Xsem.Step_log.t -> bool

(** A measure point's warm-up and timed run on [trace], given the
    verdict [fits_l1] on its log. When it is false: [reset], then
    [simulate] twice, the first result discarded: the warm-up's only
    effect is the cache state it leaves. When it is true, the warm-up is
    not simulated and the timed run skips the caches
    ({!Core.simulate}[ ~resident:true]): it would hit L1 on every fetch
    and access, so the result is the same. The caches are then left as
    they were, and a later [measure] with a false verdict flushes them
    first. Either way the point counts two blocks in [pipeline.blocks],
    the warm-up and the timed run.

    [~prefix:k] is passed to the timed run when the verdict holds, so
    the result's [prefix] is the result of its first [k] steps, which
    is what [measure] of a log of exactly those steps would return. On
    a false verdict it is ignored and [prefix] is [None]: after a larger
    log's warm-up the caches are not those a smaller log's leaves. *)
val measure :
  ?record_schedule:bool -> ?prefix:int -> t -> fits_l1:bool -> Trace.t -> Core.result

(** [prefix_point r] is [r.prefix], the result of a [measure ~prefix]
    run's first steps, taken as a measure point of its own: when it is
    there, it counts the two blocks in [pipeline.blocks] that a
    [measure] counts. *)
val prefix_point : Core.result -> Core.result option

(** The calling domain's machine for [d], created on first use and
    reused afterwards (keyed by descriptor physical identity). Domains
    never share one, so its mutable scratch state needs no lock. Call
    [reset] before a run that must not see earlier runs' caches. *)
val for_descriptor : Uarch.Descriptor.t -> t
