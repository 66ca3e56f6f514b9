(** A simulated machine: one microarchitecture core plus its L1D, L1I
    and unified L2 caches. Cache contents persist across simulations
    until [reset], mirroring warm-up behaviour on real hardware. The
    machine also owns the simulator's reusable scratch state, so
    repeated [simulate] calls perform no per-simulation machine-state
    allocation.

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

(** Warm the caches with [trace]: make exactly the cache accesses
    [simulate] would, with no timing ({!Core.warm}), leaving L1D, L1I
    and L2 as a discarded simulation would. Counts as one simulated
    block in [pipeline.blocks] and adds its time to [pipeline.sim_ns],
    so a measure point (warm-up, then timed run) counts two blocks. *)
val warm : t -> Trace.t -> unit

(** The L1 residency verdict on [steps]: would the warm-up walk of
    [steps]'s trace, under any descriptor, from flushed caches, leave
    every L1I and L1D line it touches resident ({!Core.fits_l1})? It
    walks scratch L1s of the machines' geometry, kept per domain, and
    adds its time to [pipeline.sim_ns]. *)
val fits_l1 : Xsem.Step_log.t -> bool

(** A measure point's warm-up and timed run on [trace], given the
    verdict [fits_l1] on its log. When it is false: [reset], [warm],
    then [simulate]. When it is true, the warm-up is not walked and the
    timed run skips the caches ({!Core.simulate}[ ~resident:true]): it
    would hit L1 on every fetch and access, so the result is the same.
    The caches are then left as they were, and a later [measure] with a
    false verdict flushes them first. Either way the point counts two
    blocks in [pipeline.blocks], the warm-up and the timed run. *)
val measure : ?record_schedule:bool -> t -> fits_l1:bool -> Trace.t -> Core.result

(** The calling domain's machine for [d], created on first use and
    reused afterwards (keyed by descriptor physical identity). Domains
    never share one, so its mutable scratch state needs no lock. Call
    [reset] before a run that must not see earlier runs' caches. *)
val for_descriptor : Uarch.Descriptor.t -> t
