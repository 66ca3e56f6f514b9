(** The measured dataset: ground-truth throughput for every successfully
    profiled block of a corpus on one microarchitecture. *)

type entry = {
  block : Corpus.Block.t;
  throughput : float;  (** measured cycles per iteration *)
  faults : int;  (** pages the monitor had to map *)
  unroll_large : int;
  unroll_small : int;
}

(** A block the profiler could not measure, with the measurement
    conditions it failed under (so failure lists from different
    datasets can be pooled without losing provenance). *)
type failure = {
  fail_block : Corpus.Block.t;
  fail_env : Harness.Environment.t;
  fail_uarch : Uarch.Descriptor.t;
  fail_reason : Harness.Profiler.failure;
}

type t = {
  uarch : Uarch.Descriptor.t;
  env : Harness.Environment.t;
  entries : entry list;
  n_input : int;  (** corpus blocks offered *)
  n_avx2_excluded : int;  (** skipped on non-AVX2 uarches, as in the paper *)
  failures : failure list;
  rejected : (Corpus.Block.t * Harness.Profiler.reject_reason) list;
  quarantined : (Corpus.Block.t * Engine.quarantine) list;
      (** blocks the engine gave up on (retry budget exhausted under
          fault injection); empty when faults are off or recoverable *)
}

(** Profile every block of the corpus on [uarch] as one [engine] batch;
    deterministic, and entry/failure/rejection order follows corpus
    order for any worker count. Builds that share an engine share its
    memo cache. *)
val build :
  ?env:Harness.Environment.t ->
  engine:Engine.t ->
  Uarch.Descriptor.t ->
  Corpus.Block.t list ->
  t

val size : t -> int

(** Fraction of (non-excluded) corpus blocks successfully measured — the
    quantity of the paper's Table I. *)
val profiled_fraction : t -> float

(** Deterministic split by block-id hash, used to train the learned model
    on data disjoint from its evaluation set. *)
val split : train_fraction:float -> t -> entry list * entry list
