(** The measurement engine: a shared, {e supervising} scheduling layer
    between the experiment drivers (dataset construction, ablations,
    validation, benchmarks, CLIs) and {!Harness.Profiler.profile}.

    The engine batches jobs, memoises their outcomes in memory and in
    an optional persistent store, and runs the unique ones on a pool of
    OCaml 5 worker domains. It also assumes a worker may die: a
    profiling attempt can crash the domain that runs it (injected by
    {!Faultsim}). An attempt either crashes or profiles the job once;
    the profiler's own clean-timing filter already guards each timing
    against machine noise.

    - {b worker-domain crash recovery}: a crash kills the domain; the
      supervisor requeues the in-flight job, up to [max_retries] times,
      and replenishes the pool with a replacement domain on the same
      worker slot. This requeue is the engine's only retry path;
    - {b graceful degradation}: a batch {e never} raises out of
      {!run_batch}. A job that crashes on every attempt lands in a
      structured quarantine manifest and the batch returns partial
      results plus that manifest. Every submitted job is accounted
      for: completed + quarantined = submitted, always.

    {b Mapping memo.} The engine owns a {!Harness.Mapping_memo} and
    hands it to every profile it runs, keyed by {!mapping_key}: the
    page mapping reads no uarch, so the profiles of one block on several
    uarches share one mapping per unroll factor. Each batch that runs
    the profiler opens a memo generation, and the memo keeps two, so
    one [run_batch] per uarch over the same blocks maps each block
    once. Outcomes are the same as without the memo; [stats] counts
    its hits and misses.

    {b Determinism.} Crash decisions are pure functions of
    (fingerprint, attempt) — never of scheduling — and the profiler is
    deterministic per job, so batch output is byte-identical for
    {e any} worker count and {e any} fault seed, as long as every job
    succeeds within its retry budget ("recoverable" rates). *)

(** One measurement request. *)
type job = {
  env : Harness.Environment.t;
  uarch : Uarch.Descriptor.t;
  block : X86.Inst.t list;
}

(** Stable content fingerprint of a measurement environment: SHA-256
    (64-char lowercase hex) over a canonical fixed-width byte encoding
    of every field. Identical across OCaml releases, word sizes and
    domains — it is safe as a persistent disk key. *)
val env_fingerprint : Harness.Environment.t -> string

(** Stable content fingerprint of a job, identifying {e what} is
    measured: SHA-256 hex over the canonical encoding of the
    environment, the microarchitecture short name and the {e encoded
    machine bytes} of the block. This is the memo key, the persistent
    store key and the faultsim draw seed. *)
val fingerprint : job -> string

(** The key of a job's page mappings in the engine's
    {!Harness.Mapping_memo}: the canonical encoding of the environment
    and the block's machine bytes — the job fingerprint's inputs
    without the uarch, undigested. *)
val mapping_key : Harness.Environment.t -> X86.Inst.t list -> string

(** Generation fingerprint, identifying {e how} a job is measured:
    SHA-256 hex over the full uarch descriptor tables (every port set
    and latency) plus {!Harness.Profiler.algorithm_version}. The store
    records it next to each measurement; editing one latency table
    entry changes exactly that uarch's generation, invalidating
    exactly its stored entries. *)
val generation : Uarch.Descriptor.t -> string

(** Digest of the preprocessed flat execution tables ({!Uarch.Flat}) a
    descriptor simulates with. Not part of any store key — the tables
    are derived from the descriptor, which [generation] already hashes.
    Pinned by golden tests to prove table flattening does not change
    simulation inputs or invalidation semantics. *)
val flat_digest : Uarch.Descriptor.t -> string

(** Block-sensitive generation: digest of the descriptor-table slice
    this block's opcode classes decode with (plus the machine
    parameters every simulation reads). Unchanged-slice edits leave the
    digest — and any store record under it — warm. See [create]'s
    [?block_generation]. *)
val block_generation : Uarch.Descriptor.t -> X86.Inst.t list -> string

(** Digest of a canonical {!Uarch.Overlay} encoding — the identity of a
    refinement candidate's patch. *)
val overlay_digest : Uarch.Overlay.t -> string

(** {1 Outcomes and quarantine} *)

(** A job that crashed on every attempt of its retry budget. *)
type quarantine = {
  q_fingerprint : string;  (** hex job fingerprint *)
  q_uarch : string;
  q_block_insts : int;
  q_attempts : int;  (** attempts made, each of which crashed *)
}

(** Why a job has no measurement. *)
type error =
  | Profiler_failure of Harness.Profiler.failure
      (** the profiler ran and failed (mapping failure etc.) *)
  | Quarantined of quarantine
      (** every attempt within the retry budget crashed its worker *)

val error_to_string : ?fingerprint:string -> error -> string

type outcome = (Harness.Profiler.profile, error) result

(** JSONL-ready rendering of one quarantine record — one line of the
    [failures.jsonl] manifest. *)
val quarantine_json : quarantine -> Telemetry.Json.t

(** The result of one batch: outcomes in submission order (every slot
    filled — quarantined slots carry [Error (Quarantined _)]) plus the
    batch's freshly quarantined jobs in worklist order. *)
type batch = { outcomes : outcome array; quarantined : quarantine list }

(** {1 Counters} *)

(** Cumulative engine counters. [submitted] is every job ever handed to
    the engine; [executed] is how many {e unique fresh} jobs the engine
    resolved by running (measured or quarantined);
    [cache_hits = submitted - executed] counts memoised results
    (including duplicates within a single batch). The accounting
    identity [completed + quarantined = submitted] always holds —
    {!lost} is 0 unless the engine itself is broken. *)
type stats = {
  submitted : int;
  executed : int;
  cache_hits : int;
  completed : int;  (** slots resolved with a measured outcome *)
  quarantined : int;  (** slots resolved by quarantine *)
  profiler_calls : int;  (** actual {!Harness.Profiler.profile} invocations *)
  retries : int;  (** attempts beyond each job's first *)
  crashes : int;  (** worker-domain deaths *)
  workers_replenished : int;  (** replacement domains spawned *)
  store_hits : int;  (** disk-tier lookups served from the store *)
  store_misses : int;  (** disk-tier lookups finding nothing *)
  store_invalidated : int;
      (** disk-tier lookups finding only a stale generation *)
  store_writes : int;  (** records appended to the store *)
  mapping_hits : int;
      (** measure points whose page mapping came from the engine's
          {!Harness.Mapping_memo} *)
  mapping_misses : int;  (** measure points that ran the mapping *)
  wall_seconds : float;  (** total wall time spent inside [run_batch] *)
}

(** [submitted - completed - quarantined]; 0 for a healthy engine. *)
val lost : stats -> int

(** Disk-tier hit rate: [store_hits] over all store consultations
    (hits + misses + invalidated); 0 when the store was never
    consulted. *)
val store_hit_rate : stats -> float

type t

(** [create ?jobs ?progress ?faults ?max_retries ()] makes a fresh
    engine. [jobs] defaults to [$BHIVE_JOBS], falling back to
    [Domain.recommended_domain_count ()]; values are clamped to at
    least 1. [progress] is invoked (under a lock) once per resolved
    unique job. [faults] defaults to {!Faultsim.of_env}.
    [max_retries] (default 4, clamped to at least 0) is how many times
    a crashed job is requeued before it is quarantined.

    [store] (an already-open handle) wins over [store_path]: the
    store's cross-process file locks are per-process, so multiple
    engines of one process — the daemon's shard pool — must share one
    handle rather than each opening the same directory. The caller
    keeps ownership: engines never close a store they were handed. *)
val create :
  ?jobs:int ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?faults:Faultsim.config ->
  ?store:Store.t ->
  ?store_path:string ->
  ?max_retries:int ->
  ?block_generation:bool ->
  unit -> t
(** [block_generation] (default [false]) switches the store's
    generation fingerprints from whole-descriptor
    ({!Stable_key.generation}) to per-block table slices
    ({!Stable_key.block_generation}): a record stays warm under any
    descriptor edit its block never reads. This is what makes each
    refinement candidate evaluation incremental; normal runs keep the
    default scheme so their store keys and golden pins are unchanged. *)

(** The shared process-wide engine (created on first use from
    [BHIVE_JOBS], [BHIVE_FAULTS] and {!default_store_path}).
    Drivers that are not handed an explicit engine use this one, so
    independent experiment sections share its memo cache. *)
val default : unit -> t

(** Worker-pool size resolved from [$BHIVE_JOBS] (what [create]
    uses when [?jobs] is omitted). Raises [Failure] on a malformed
    value — use {!validate_env} at CLI startup to turn that into a
    clean exit. *)
val default_jobs : unit -> int

(** [$BHIVE_JOBS] parsed strictly: unset/empty is [Ok None], a
    positive integer is [Ok (Some n)], anything else is [Error msg]
    with a one-line message. *)
val jobs_from_env : unit -> (int option, string) result

(** {1 Persistent store tier} *)

(** Process-default store path (the [--store] CLI flag; wins over
    [$BHIVE_STORE]). Must be called before the first engine is
    created. *)
val set_default_store : string -> unit

(** [$BHIVE_STORE] parsed strictly: unset/empty is [Ok None]; a path
    that exists but is not a directory is [Error msg]. *)
val store_path_from_env : unit -> (string option, string) result

(** The store path [create] uses when [?store_path] is omitted: the
    {!set_default_store} override if any, else [$BHIVE_STORE]. *)
val default_store_path : unit -> string option

(** Validate every engine-relevant environment variable
    ([BHIVE_JOBS], [BHIVE_FAULTS], [BHIVE_STORE]) without side
    effects. CLIs call this first and turn [Error msg] into a one-line
    stderr message and exit code 2 — never a silent fallback. *)
val validate_env : unit -> (unit, string) result

val jobs : t -> int
val faults : t -> Faultsim.config
val stats : t -> stats
val cache_size : t -> int

(** The engine's disk tier, if one is attached. *)
val store : t -> Store.t option

(** [hit_rate s] is cache hits over submitted jobs, 0 when nothing was
    submitted. *)
val hit_rate : stats -> float

(** [run_batch t jobs] resolves every job and returns the outcomes in
    submission order plus the batch's quarantine manifest. Jobs whose
    fingerprint is already cached (or duplicated within the batch) are
    not re-executed; a previously quarantined fingerprint resolves to
    its cached quarantine. Never raises on injected crashes. *)
val run_batch : t -> job list -> batch

(** [peek t job] probes the cache hierarchy — memory memo, then the
    disk store — without executing anything. [Some outcome] is exactly
    what {!run_batch} would return for the job without a profiler
    call; [None] means resolving it requires execution. A store hit
    fills the memo. Same threading contract as {!run_batch}: the
    submitting thread only. This is the serve dispatcher's warm fast
    path — a warm request is answered without occupying a batch slot. *)
val peek : t -> job -> outcome option

(** [profile t env uarch block] submits a single job — a memoising,
    supervised drop-in for {!Harness.Profiler.profile}. *)
val profile :
  t -> Harness.Environment.t -> Uarch.Descriptor.t -> X86.Inst.t list -> outcome

(** Every job quarantined over the engine's lifetime, in order of
    occurrence. *)
val quarantines : t -> quarantine list

(** Write the lifetime quarantine manifest as JSONL (one
    {!quarantine_json} object per line — the [failures.jsonl] format);
    returns the number of records written. *)
val write_quarantine_manifest : t -> string -> int

(** [phase t name f] runs [f ()] and records its wall time (and the
    engine counter deltas it caused) under [name]. *)
val phase : t -> string -> (unit -> 'a) -> 'a

(** Per-phase metrics, in the order the phases ran. *)
type phase_metrics = {
  phase_name : string;
  phase_wall_seconds : float;
  phase_submitted : int;
  phase_executed : int;
  phase_cache_hits : int;
  phase_retries : int;
  phase_quarantined : int;
}

val phases : t -> phase_metrics list

(** Per-worker execution accounting, tracked unconditionally (two
    monotonic clock reads per executed job): how many jobs each pool
    slot ran and for how long. Utilization is
    [busy_seconds / wall_seconds]. A replenished worker keeps its
    slot, so a slot's totals span every domain that occupied it. *)
type worker_stat = { worker_id : int; jobs_run : int; busy_seconds : float }

val worker_stats : t -> worker_stat list

(** The machine-readable engine report: cumulative counters, crash and
    retry statistics, per-worker utilization, and per-phase sections —
    the object [bench/main.ml] extends into [bench_summary.json]. *)
val summary_json : t -> Telemetry.Json.t

(** [Telemetry.Json.to_string (summary_json t)]. *)
val phases_to_json : t -> string
