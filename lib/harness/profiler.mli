(** The BHive basic-block profiler: measures the steady-state inverse
    throughput of an arbitrary basic block under a configurable
    measurement environment, applying the paper's clean-measurement
    protocol (16 timings, at least 8 clean and identical, misalignment
    filter). *)

(** Semantic version of the measurement algorithm itself. Bumped when
    a change to the protocol can alter results for an unchanged
    (env, uarch, block) triple; the persistent measurement store folds
    it into the generation fingerprint so stored results from an older
    protocol are invalidated rather than served. *)
val algorithm_version : string

type reject_reason =
  | Misaligned_access  (** MISALIGNED_MEM_REFERENCE counter non-zero *)
  | Never_clean
      (** no timing met the clean criteria (persistent cache misses) *)
  | Unstable  (** fewer than [min_clean] identical clean timings *)

type failure =
  | Mapping_failed of Mapping.failure
  | Rejected of reject_reason

(** Render a failure; [?fingerprint] (the engine's hex job fingerprint)
    is appended as [ [job <hex>] ] so a failure in a log can be matched
    back to its quarantine-manifest / trace entry. *)
val failure_to_string : ?fingerprint:string -> failure -> string

(** Result of measuring one unrolled instance of the block. *)
type point = {
  unroll : int;
  accepted_cycles : int option;  (** agreed-upon clean cycle count *)
  best_cycles : int;  (** minimum observed, reported even when unclean *)
  clean_timings : int;
      (** how many of the [env.timings] timed runs were clean: no cache
          misses of any kind, no context switch *)
  faults : int;  (** pages the monitor mapped *)
  distinct_frames : int;  (** 1 under single-physical-page mapping *)
  counters : Pipeline.Counters.t;  (** from the first timed run *)
}

type profile = {
  throughput : float;  (** cycles per block iteration at steady state *)
  accepted : bool;  (** all clean-measurement criteria satisfied *)
  reject : reject_reason option;
  large : point;
  small : point option;  (** absent under the naive unroll strategy *)
  factors : Unroll.factors;
}

(** [profile env uarch block] runs the full measurement pipeline:
    page-mapping monitor, cache warm-up, repeated timed executions with
    simulated OS noise, filtering, and throughput derivation. The result
    is deterministic in (env, uarch, block).

    [memo] is a {!Mapping_memo} and the key of [env] and [block] in it
    (see {!Mapping_memo.map}). Each measure point then takes its
    mapping from the memo, which may hold it from a profile of the same
    block under another uarch, or maps it and records it there. The
    result is the same as without [memo]: the mapping never reads the
    uarch. *)
val profile :
  ?memo:Mapping_memo.t * string ->
  Environment.t ->
  Uarch.Descriptor.t ->
  X86.Inst.t list ->
  (profile, failure) result

(** The measured throughput when the block was accepted, [None]
    otherwise. Polymorphic in the error so it applies to both raw
    profiler results and engine outcomes. *)
val accepted_throughput : (profile, 'e) result -> float option
