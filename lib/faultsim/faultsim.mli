(** Deterministic, seeded crash injection for the simulated measurement
    substrate.

    The real BHive harness runs each measurement in a worker process
    that can die, for instance on a block it cannot map. This module
    reproduces that one failure mode {e exactly}: whether a profiling
    attempt crashes its worker domain is a pure function of the fault
    configuration, the job fingerprint and the attempt number. Nothing
    depends on wall time, worker count or scheduling order, which is
    what lets the engine promise byte-identical output under any fault
    seed, as long as every job succeeds within its retry budget.

    Timing noise is not injected here: the profiler already models OS
    interference ([context_switch_rate]) and accepts a timing only
    when enough of its timed runs are clean and agree.

    Configuration comes from the [BHIVE_FAULTS] environment variable
    (or the [--faults] CLI flag), a comma-separated key=value spec:

    {v BHIVE_FAULTS=crash=0.03,seed=7 v}

    Unset keys default to rate 0 / seed 0; the empty string, ["none"]
    and an unset variable all mean "no faults". *)

type config = {
  crash : float;  (** per-attempt probability the worker domain dies *)
  seed : int64;  (** fault-stream seed; independent of the noise seed *)
}

(** No faults: rate zero. {!crashes} on this config is always [false]
    and performs no work. *)
val none : config

val is_none : config -> bool

(** Parse a [crash=..,seed=..] spec. The rate must be in [0, 1]; any
    other key and malformed values are one-line errors. The empty
    string parses to {!none}. *)
val parse : string -> (config, string) result

(** Canonical spec string: [parse (to_string c) = Ok c] for every rate
    in [0, 1] and every seed. *)
val to_string : config -> string

(** Read [BHIVE_FAULTS] without raising: unset or empty is [Ok none];
    a malformed value is [Error msg] with the same one-line message
    {!of_env} raises. This is what CLI startup validation uses to turn
    a bad spec into a clean non-zero exit. *)
val env_result : unit -> (config, string) result

(** Read [BHIVE_FAULTS]. Unset or empty means {!none}; a malformed
    value raises [Failure] with a usable message — a chaos run that
    silently ran without chaos would defeat its purpose. *)
val of_env : unit -> config

(** [crashes cfg ~fingerprint ~attempt] decides deterministically
    whether this attempt of this job kills its worker domain. *)
val crashes : config -> fingerprint:string -> attempt:int -> bool
