(* The supervising measurement engine. See engine.mli for the contract.

   Parallelism strategy: each batch is first resolved against the memo
   cache and deduplicated, leaving a worklist of unique jobs in
   first-occurrence order. Worker domains pull (job, attempt) items
   from a mutex-protected queue and write into disjoint slots of a
   result array. Crashes are decided by Faultsim purely from
   (fingerprint, attempt), so which domain runs a job — and how many
   domains there are — cannot change any outcome; that is the whole
   determinism argument, faults included.

   Supervision: an attempt either draws a simulated crash and raises
   Worker_crashed out of the worker domain, or profiles the job once.
   The submitting thread joins domains one by one; when a join
   re-raises Worker_crashed it requeues the in-flight job (attempt + 1)
   or quarantines it if the budget is spent, then spawns a replacement
   domain on the same worker slot and keeps supervising. That requeue
   is the engine's only retry path.

   The cache is only written by the submitting thread after the pool
   drains, and results are re-expanded into submission order — which is
   what makes output byte-identical for any worker count and fault
   seed. *)

type job = {
  env : Harness.Environment.t;
  uarch : Uarch.Descriptor.t;
  block : X86.Inst.t list;
}

(* Stable SHA-256 hex digests (see stable_key.ml). These are the memo
   keys, the persistent store keys and the faultsim draw seeds — they
   must not depend on Marshal or Hashtbl.hash, whose bytes change
   across OCaml releases and word sizes. *)
let env_fingerprint = Stable_key.env_fingerprint

let fingerprint (j : job) =
  Stable_key.job_fingerprint ~env:j.env ~uarch_short:j.uarch.short j.block

let mapping_key env block = Stable_key.mapping_key ~env block
let generation = Stable_key.generation
let flat_digest = Stable_key.flat_digest
let block_generation = Stable_key.block_generation
let overlay_digest = Stable_key.overlay_digest

(* --- persistent store tier -------------------------------------------- *)

(* [BHIVE_STORE], unset/empty meaning no disk tier. The engine never
   opens a store itself: its caller resolves the path, opens the store,
   hands it to [create] and closes it. *)
let store_path_from_env () =
  match Sys.getenv_opt "BHIVE_STORE" with
  | None -> Ok None
  | Some s ->
    let s = String.trim s in
    if s = "" then Ok None
    else if Sys.file_exists s && not (Sys.is_directory s) then
      Error
        (Printf.sprintf "invalid BHIVE_STORE=%S: exists and is not a directory"
           s)
    else Ok (Some s)

let jobs_from_env () =
  match Sys.getenv_opt "BHIVE_JOBS" with
  | None -> Ok None
  | Some s -> (
    let trimmed = String.trim s in
    if trimmed = "" then Ok None
    else
      match int_of_string_opt trimmed with
      | Some n when n >= 1 -> Ok (Some n)
      | _ ->
        Error
          (Printf.sprintf "invalid BHIVE_JOBS=%S: expected a positive integer"
             s))

(* One-stop startup validation for the CLIs: every engine-relevant
   environment variable either parses or yields a one-line error. *)
let validate_env () =
  match jobs_from_env () with
  | Error msg -> Error msg
  | Ok _ -> (
    match Faultsim.env_result () with
    | Error msg -> Error msg
    | Ok _ -> (
      match store_path_from_env () with
      | Error msg -> Error msg
      | Ok _ -> Ok ()))

(* --- outcomes and quarantine ------------------------------------------ *)

type quarantine = {
  q_fingerprint : string;
  q_uarch : string;
  q_block_insts : int;
  q_attempts : int;
}

type error =
  | Profiler_failure of Harness.Profiler.failure
  | Quarantined of quarantine

type outcome = (Harness.Profiler.profile, error) result

let error_to_string ?fingerprint = function
  | Profiler_failure f -> Harness.Profiler.failure_to_string ?fingerprint f
  | Quarantined q ->
    Printf.sprintf "quarantined after %d crashed attempts [job %s]"
      q.q_attempts q.q_fingerprint

let quarantine_json (q : quarantine) =
  let open Telemetry in
  Json.Object
    [
      ("fingerprint", Json.String q.q_fingerprint);
      ("uarch", Json.String q.q_uarch);
      ("block_insts", Json.Number (float_of_int q.q_block_insts));
      ("attempts", Json.Number (float_of_int q.q_attempts));
    ]

type batch = { outcomes : outcome array; quarantined : quarantine list }

(* --- counters --------------------------------------------------------- *)

type stats = {
  submitted : int;
  executed : int;
  cache_hits : int;
  completed : int;
  quarantined : int;
  profiler_calls : int;
  retries : int;
  crashes : int;
  workers_replenished : int;
  store_hits : int;
  store_misses : int;
  store_invalidated : int;
  store_writes : int;
  mapping_hits : int;
  mapping_misses : int;
  wall_seconds : float;
}

let lost (s : stats) = s.submitted - s.completed - s.quarantined

(* Disk-tier effectiveness: hits over consultations. Invalidated
   lookups count as misses here — they cost a re-profile. *)
let store_hit_rate (s : stats) =
  let denom = s.store_hits + s.store_misses + s.store_invalidated in
  if denom = 0 then 0.0 else float_of_int s.store_hits /. float_of_int denom

type worker_stat = { worker_id : int; jobs_run : int; busy_seconds : float }

type t = {
  n_jobs : int;
  progress : (done_:int -> total:int -> unit) option;
  faults : Faultsim.config;
  max_retries : int;
  cache : (string, outcome) Hashtbl.t;
  memo : Harness.Mapping_memo.t;
      (** page mappings shared across uarches; a generation per batch
          that runs the profiler *)
  store : Store.t option;  (** disk tier; the caller opens and closes it *)
  mutable gen_cache : (Uarch.Descriptor.t * string) list;
      (** generation fingerprints memoised by descriptor identity
          (physical equality — a perturbed copy of a descriptor must
          get its own generation); only the submitting thread touches
          it *)
  block_gen : (string, Uarch.Descriptor.t * string) Hashtbl.t option;
      (** when [Some], block-sensitive generations: store generations
          come from {!Stable_key.block_generation} (per job, keyed by
          job fingerprint, guarded by descriptor identity so a fresh
          candidate descriptor under the same fingerprint recomputes);
          submitting thread only, like [gen_cache] *)
  lock : Mutex.t;  (** guards the progress hook only *)
  worker_busy_ns : int64 array;
      (** per-worker-slot execution time; only the slot's current
          occupant writes it *)
  worker_jobs : int array;
  (* [stats]'s counters, one cell per event: whichever thread sees the
     event (the submitting thread or a worker) increments its cell, and
     nothing else holds a copy *)
  submitted : int Atomic.t;
  executed : int Atomic.t;
  cache_hits : int Atomic.t;
  completed : int Atomic.t;
  quarantined : int Atomic.t;
  profiler_calls : int Atomic.t;
  retries : int Atomic.t;
  crashes : int Atomic.t;
  workers_replenished : int Atomic.t;
  store_hits : int Atomic.t;
  store_misses : int Atomic.t;
  store_invalidated : int Atomic.t;
  store_writes : int Atomic.t;
  mutable wall_seconds : float;
  mutable quarantine_log : quarantine list;  (** reverse order *)
}

(* The registry keeps what no [stats] field carries: the mapping memo's
   traffic and the latency histograms. *)
let m_mapping_hits = Telemetry.Metrics.counter "engine.mapping_memo.hits"
let m_mapping_misses = Telemetry.Metrics.counter "engine.mapping_memo.misses"
let h_job_seconds = Telemetry.Metrics.histogram "engine.job_seconds"
let h_batch_seconds = Telemetry.Metrics.histogram "engine.batch_seconds"

let default_jobs () =
  match jobs_from_env () with
  | Ok (Some n) -> n
  | Ok None -> Domain.recommended_domain_count ()
  | Error msg -> failwith msg

let create ?jobs ?progress ?faults ?store ?(max_retries = 4)
    ?(block_generation = false) () =
  let n_jobs = max 1 (match jobs with Some n -> n | None -> default_jobs ()) in
  let faults = match faults with Some f -> f | None -> Faultsim.of_env () in
  let zero () = Atomic.make 0 in
  {
    n_jobs;
    progress;
    faults;
    max_retries = max 0 max_retries;
    cache = Hashtbl.create 4096;
    memo = Harness.Mapping_memo.create ();
    store;
    gen_cache = [];
    block_gen = (if block_generation then Some (Hashtbl.create 1024) else None);
    lock = Mutex.create ();
    worker_busy_ns = Array.make n_jobs 0L;
    worker_jobs = Array.make n_jobs 0;
    submitted = zero ();
    executed = zero ();
    cache_hits = zero ();
    completed = zero ();
    quarantined = zero ();
    profiler_calls = zero ();
    retries = zero ();
    crashes = zero ();
    workers_replenished = zero ();
    store_hits = zero ();
    store_misses = zero ();
    store_invalidated = zero ();
    store_writes = zero ();
    wall_seconds = 0.0;
    quarantine_log = [];
  }

let jobs t = t.n_jobs
let faults t = t.faults
let store t = t.store

(* Generation fingerprints, memoised by descriptor identity. *)
let generation_of t (u : Uarch.Descriptor.t) =
  match List.find_opt (fun (d, _) -> d == u) t.gen_cache with
  | Some (_, g) -> g
  | None ->
    let g = Stable_key.generation u in
    t.gen_cache <- (u, g) :: t.gen_cache;
    g

(* The store generation for one job: whole-descriptor by default,
   per-block table slice when the engine was created with
   [~block_generation:true]. The block-sensitive cache is keyed by job
   fingerprint but guarded by descriptor identity: refinement reuses
   one fingerprint across candidate descriptors (same short name), and
   a fresh engine per candidate plus this guard keeps them distinct. *)
let generation_for t fp (j : job) =
  match t.block_gen with
  | None -> generation_of t j.uarch
  | Some tbl -> (
    match Hashtbl.find_opt tbl fp with
    | Some (d, g) when d == j.uarch -> g
    | _ ->
      let g = Stable_key.block_generation j.uarch j.block in
      Hashtbl.replace tbl fp (j.uarch, g);
      g)

(* In block-generation mode the store key is content-addressed by the
   generation itself: each (job, table-slice) pair lives under its own
   key, so a rejected refinement candidate's writes never supersede the
   incumbent's records and every previously-visited configuration stays
   warm (invalidation shows up as a miss, never a stale record).
   Whole-descriptor mode keeps the bare fingerprint key — one live
   record per job, superseded when the descriptor changes. *)
let store_key t fp gen =
  match t.block_gen with None -> fp | Some _ -> fp ^ "@" ^ gen

(* The disk tier's record of job [j] (fingerprint [fp]), decoded:
   [None] without a store. The payload is decoded here and nowhere
   else; a checksummed but undecodable payload (which the format tag,
   pinning the Marshal dialect and the payload version, should rule
   out) reads as a miss, so the job is re-profiled and overwritten. *)
let store_read t fp (j : job) =
  Option.map
    (fun st ->
      let gen = generation_for t fp j in
      match Store.get st ~key:(store_key t fp gen) ~gen with
      | Store.Hit payload -> (
        match (Marshal.from_string payload 0 : outcome) with
        | r -> `Hit r
        | exception _ -> `Miss)
      | Store.Stale -> `Stale
      | Store.Miss -> `Miss)
    t.store

(* Cache probe without execution: memo tier, then the disk store. A
   store hit fills the memo so later probes and batches resolve in
   memory. Same threading contract as [run_batch] — submitting thread
   only (the memo Hashtbl is unsynchronised); the serve dispatcher is
   that thread. *)
let peek t (j : job) : outcome option =
  let fp = fingerprint j in
  match Hashtbl.find_opt t.cache fp with
  | Some _ as r -> r
  | None -> (
    match store_read t fp j with
    | Some (`Hit r) ->
      Atomic.incr t.store_hits;
      Hashtbl.replace t.cache fp r;
      Some r
    | Some (`Stale | `Miss) | None -> None)

let stats t : stats =
  let memo = Harness.Mapping_memo.stats t.memo in
  let get = Atomic.get in
  {
    submitted = get t.submitted;
    executed = get t.executed;
    cache_hits = get t.cache_hits;
    completed = get t.completed;
    quarantined = get t.quarantined;
    profiler_calls = get t.profiler_calls;
    retries = get t.retries;
    crashes = get t.crashes;
    workers_replenished = get t.workers_replenished;
    store_hits = get t.store_hits;
    store_misses = get t.store_misses;
    store_invalidated = get t.store_invalidated;
    store_writes = get t.store_writes;
    mapping_hits = memo.hits;
    mapping_misses = memo.misses;
    wall_seconds = t.wall_seconds;
  }

let hit_rate (s : stats) =
  if s.submitted = 0 then 0.0
  else float_of_int s.cache_hits /. float_of_int s.submitted

let seconds_of_ns ns = Int64.to_float ns /. 1e9

let worker_stats t =
  List.init t.n_jobs (fun w ->
      {
        worker_id = w;
        jobs_run = t.worker_jobs.(w);
        busy_seconds = seconds_of_ns t.worker_busy_ns.(w);
      })

let quarantines t = List.rev t.quarantine_log

let write_quarantine_manifest t path =
  let qs = quarantines t in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun q ->
          Out_channel.output_string oc
            (Telemetry.Json.to_string ~compact:true (quarantine_json q));
          Out_channel.output_char oc '\n')
        qs);
  List.length qs

(* The raised-out-of-a-domain representation of a simulated worker
   crash; it never escapes run_batch. *)
exception
  Worker_crashed of { unique : int; attempt : int; worker : int }

let run_batch t (submission : job list) : batch =
  let t0 = Unix.gettimeofday () in
  let batch_start_ns = Telemetry.Trace.now_ns () in
  let submission = Array.of_list submission in
  let n = Array.length submission in
  ignore (Atomic.fetch_and_add t.submitted n);
  let results : outcome option array = Array.make n None in
  let fresh_quarantines = ref [] in
  let before = stats t in
  let body () =
    let batch_span = Telemetry.Trace.current_span () in
    (* Resolve against the cache and deduplicate within the batch. The
       worklist keeps unique jobs in first-occurrence order; [claims]
       maps each unique fingerprint to every submission slot wanting its
       result. *)
    let claims : (string, int list ref) Hashtbl.t =
      Hashtbl.create (max 16 n)
    in
    let worklist = ref [] in
    (* Disk-tier lookup for the first occurrence of a fingerprint. A
       hit fills the memo immediately (later duplicates in this batch
       resolve exactly like cold-run duplicates: through the memo), so
       cache-hit counts are identical cold vs warm. A stale record —
       same job, written under a different generation of the uarch
       tables or profiler — is the invalidation path. *)
    let store_lookup i fp (j : job) : outcome option =
      match store_read t fp j with
      | None -> None
      | Some (`Hit r) ->
        Atomic.incr t.store_hits;
        Telemetry.Trace.instant "engine.store_hit" ~attrs:(fun () ->
            [
              ("slot", Telemetry.Trace.Int i);
              ("fingerprint", Telemetry.Trace.Str fp);
            ]);
        Some r
      | Some `Stale ->
        Atomic.incr t.store_invalidated;
        Telemetry.Trace.instant "engine.store_invalidated" ~attrs:(fun () ->
            [
              ("slot", Telemetry.Trace.Int i);
              ("fingerprint", Telemetry.Trace.Str fp);
            ]);
        None
      | Some `Miss ->
        Atomic.incr t.store_misses;
        None
    in
    Array.iteri
      (fun i j ->
        let fp = fingerprint j in
        match Hashtbl.find_opt t.cache fp with
        | Some r ->
          Atomic.incr t.cache_hits;
          Telemetry.Trace.instant "engine.cache_hit" ~attrs:(fun () ->
              [ ("slot", Telemetry.Trace.Int i) ]);
          results.(i) <- Some r
        | None -> (
          match Hashtbl.find_opt claims fp with
          | Some slots ->
            Atomic.incr t.cache_hits;
            Telemetry.Trace.instant "engine.cache_hit" ~attrs:(fun () ->
                [
                  ("slot", Telemetry.Trace.Int i);
                  ("dedup", Telemetry.Trace.Bool true);
                ]);
            slots := i :: !slots
          | None -> (
            match store_lookup i fp j with
            | Some r ->
              Hashtbl.replace t.cache fp r;
              results.(i) <- Some r
            | None ->
              Hashtbl.add claims fp (ref [ i ]);
              worklist := (fp, i) :: !worklist)))
      submission;
    let worklist = Array.of_list (List.rev !worklist) in
    let m = Array.length worklist in
    (* A batch that runs the profiler opens a memo generation: what the
       previous such batch mapped stays reachable for this one. *)
    if m > 0 then Harness.Mapping_memo.rotate t.memo;
    (* Per-unique generation fingerprints, precomputed on the
       submitting thread so workers read them without touching
       [gen_cache]. *)
    let gens =
      match t.store with
      | None -> [||]
      | Some _ ->
        Array.map
          (fun (fp, slot) -> generation_for t fp submission.(slot))
          worklist
    in
    (* Persist measured outcomes from the worker that produced them.
       Quarantines are never persisted: they are artifacts of the
       simulated substrate, not measurements, and the same fault seed
       re-derives them deterministically on a warm run. *)
    let store_put u fp (r : outcome) =
      match t.store with
      | None -> ()
      | Some st -> (
        match r with
        | Error (Quarantined _) -> ()
        | Ok _ | Error (Profiler_failure _) ->
          if
            Store.put st
              ~key:(store_key t fp gens.(u))
              ~gen:gens.(u)
              (Marshal.to_string r [])
          then begin
            Atomic.incr t.store_writes;
            Telemetry.Trace.instant "engine.store_write" ~attrs:(fun () ->
                [ ("fingerprint", Telemetry.Trace.Str fp) ])
          end)
    in
    let out : outcome option array = Array.make m None in
    let queue : (int * int) Queue.t = Queue.create () in
    let queue_lock = Mutex.create () in
    Array.iteri (fun u _ -> Queue.add (u, 0) queue) worklist;
    let pop () =
      Mutex.lock queue_lock;
      let item = Queue.take_opt queue in
      Mutex.unlock queue_lock;
      item
    in
    let push item =
      Mutex.lock queue_lock;
      Queue.add item queue;
      Mutex.unlock queue_lock
    in
    (* A unique job is executed once it resolves, measured or
       quarantined; only this batch moves [executed] while it runs, so
       the count past [executed_before] is the progress hook's [done_]. *)
    let executed_before = Atomic.get t.executed in
    let mark_resolved () =
      let d = 1 + Atomic.fetch_and_add t.executed 1 - executed_before in
      match t.progress with
      | None -> ()
      | Some hook ->
        Mutex.lock t.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.lock)
          (fun () -> hook ~done_:d ~total:m)
    in
    let finalize_quarantine u ~attempts =
      let fp, slot = worklist.(u) in
      let j = submission.(slot) in
      let q =
        {
          q_fingerprint = fp;
          q_uarch = j.uarch.short;
          q_block_insts = List.length j.block;
          q_attempts = attempts;
        }
      in
      out.(u) <- Some (Error (Quarantined q));
      Telemetry.Trace.instant "engine.quarantine" ~attrs:(fun () ->
          [
            ("fingerprint", Telemetry.Trace.Str fp);
            ("attempts", Telemetry.Trace.Int attempts);
          ]);
      mark_resolved ()
    in
    (* One real profiler invocation, with span + utilization accounting. *)
    let execute_profiler ~worker ~attempt fp (j : job) :
        (Harness.Profiler.profile, Harness.Profiler.failure) result =
      let start_ns = Telemetry.Trace.now_ns () in
      let result =
        Telemetry.Trace.span "engine.execute" ~parent:batch_span
          ~attrs:(fun _ ->
            [
              ("worker", Telemetry.Trace.Int worker);
              ("attempt", Telemetry.Trace.Int attempt);
              ( "queue_wait_us",
                Telemetry.Trace.Float
                  (Int64.to_float (Int64.sub start_ns batch_start_ns) /. 1e3) );
              ("fingerprint", Telemetry.Trace.Str fp);
            ])
          (fun () ->
            let key = mapping_key j.env j.block in
            Harness.Profiler.profile ~memo:(t.memo, key) j.env j.uarch j.block)
      in
      let busy = Int64.sub (Telemetry.Trace.now_ns ()) start_ns in
      t.worker_busy_ns.(worker) <- Int64.add t.worker_busy_ns.(worker) busy;
      t.worker_jobs.(worker) <- t.worker_jobs.(worker) + 1;
      Atomic.incr t.profiler_calls;
      Telemetry.Metrics.observe h_job_seconds (seconds_of_ns busy);
      result
    in
    (* One attempt of unique job [u]: draw a crash, which kills the
       domain by escaping as Worker_crashed, else profile once. *)
    let run_attempt ~worker u attempt =
      let fp, slot = worklist.(u) in
      if Faultsim.crashes t.faults ~fingerprint:fp ~attempt then begin
        Atomic.incr t.crashes;
        Telemetry.Trace.instant "engine.crash" ~attrs:(fun () ->
            [
              ("fingerprint", Telemetry.Trace.Str fp);
              ("attempt", Telemetry.Trace.Int attempt);
            ]);
        raise (Worker_crashed { unique = u; attempt; worker })
      end;
      let r =
        Result.map_error
          (fun f -> Profiler_failure f)
          (execute_profiler ~worker ~attempt fp submission.(slot))
      in
      out.(u) <- Some r;
      store_put u fp r;
      mark_resolved ()
    in
    let worker_loop w () =
      let rec loop () =
        match pop () with
        | None -> ()
        | Some (u, attempt) ->
          run_attempt ~worker:w u attempt;
          loop ()
      in
      loop ()
    in
    (* The supervisor's half of crash recovery: requeue or quarantine
       the in-flight job, count the replacement. *)
    let recover ~unique ~attempt =
      Atomic.incr t.workers_replenished;
      if attempt < t.max_retries then begin
        Atomic.incr t.retries;
        push (unique, attempt + 1)
      end
      else finalize_quarantine unique ~attempts:(attempt + 1)
    in
    let workers = min t.n_jobs m in
    if workers <= 1 then begin
      (* Sequential path: the single worker slot "dies" on a crash and
         is immediately re-occupied; the queue discipline is the same
         as the parallel path. *)
      let rec drain () =
        match pop () with
        | None -> ()
        | Some (u, attempt) ->
          (try run_attempt ~worker:0 u attempt
           with Worker_crashed { unique; attempt; _ } ->
             recover ~unique ~attempt);
          drain ()
      in
      drain ()
    end
    else begin
      (* A non-crash exception escaping a worker (a caller's progress
         hook aborting the run, an unexpected profiler error) must not
         leak live domains past run_batch: remember the first such
         exception, join every remaining domain without replenishing,
         and re-raise only once the pool is fully drained. *)
      let rec supervise ~fatal pool =
        match (pool, fatal) with
        | [], None -> ()
        | [], Some e -> raise e
        | (w, d) :: rest, _ -> (
          match Domain.join d with
          | () -> supervise ~fatal rest
          | exception Worker_crashed { unique; attempt; worker } -> (
            match fatal with
            | None ->
              recover ~unique ~attempt;
              (* replenish the pool on the same worker slot; the
                 replacement sees any requeued job before exiting *)
              let d' = Domain.spawn (worker_loop worker) in
              supervise ~fatal (rest @ [ (w, d') ])
            | Some _ -> supervise ~fatal rest)
          | exception e ->
            let fatal = match fatal with None -> Some e | some -> some in
            supervise ~fatal rest)
      in
      supervise ~fatal:None
        (List.init workers (fun k -> (k, Domain.spawn (worker_loop k))))
    end;
    (* Commit to the cache and expand into submission order. *)
    Array.iteri
      (fun u (fp, _) ->
        let r = Option.get out.(u) in
        Hashtbl.replace t.cache fp r;
        (match r with
        | Error (Quarantined q) ->
          fresh_quarantines := q :: !fresh_quarantines
        | _ -> ());
        List.iter (fun i -> results.(i) <- Some r) !(Hashtbl.find claims fp))
      worklist
  in
  Telemetry.Trace.span "engine.run_batch"
    ~attrs:(fun () ->
      let after = stats t in
      let executed = after.executed - before.executed in
      [
        ("submitted", Telemetry.Trace.Int n);
        ("executed", Telemetry.Trace.Int executed);
        ("cache_hits", Telemetry.Trace.Int (after.cache_hits - before.cache_hits));
        ("workers", Telemetry.Trace.Int (min t.n_jobs executed));
        ("retries", Telemetry.Trace.Int (after.retries - before.retries));
        ("quarantined", Telemetry.Trace.Int (List.length !fresh_quarantines));
      ])
    body;
  let outcomes = Array.map Option.get results in
  let quarantined = List.rev !fresh_quarantines in
  (* Slot-level accounting: every submitted slot is either completed or
     quarantined; nothing is ever lost. *)
  Array.iter
    (function
      | Error (Quarantined _) -> Atomic.incr t.quarantined
      | _ -> Atomic.incr t.completed)
    outcomes;
  t.quarantine_log <- List.rev_append quarantined t.quarantine_log;
  let memo_after = Harness.Mapping_memo.stats t.memo in
  Telemetry.Metrics.add m_mapping_hits (memo_after.hits - before.mapping_hits);
  Telemetry.Metrics.add m_mapping_misses (memo_after.misses - before.mapping_misses);
  let batch_seconds = Unix.gettimeofday () -. t0 in
  Telemetry.Metrics.observe h_batch_seconds batch_seconds;
  t.wall_seconds <- t.wall_seconds +. batch_seconds;
  { outcomes; quarantined }

let profile t env uarch block =
  (run_batch t [ { env; uarch; block } ]).outcomes.(0)

let summary_json t =
  let open Telemetry in
  let s = stats t in
  let num i = Json.Number (float_of_int i) in
  let worker_json (w : worker_stat) =
    let utilization =
      if s.wall_seconds <= 0.0 then 0.0 else w.busy_seconds /. s.wall_seconds
    in
    Json.Object
      [
        ("worker", num w.worker_id);
        ("jobs_run", num w.jobs_run);
        ("busy_seconds", Json.Number w.busy_seconds);
        ("utilization", Json.Number utilization);
      ]
  in
  let fault_json =
    Json.Object
      [
        ( "config",
          Json.String
            (if Faultsim.is_none t.faults then "none"
             else Faultsim.to_string t.faults) );
        ("max_retries", num t.max_retries);
        ("profiler_calls", num s.profiler_calls);
        ("retries", num s.retries);
        ("crashes", num s.crashes);
        ("workers_replenished", num s.workers_replenished);
        ("quarantined_jobs", num (List.length t.quarantine_log));
        ("quarantined_slots", num s.quarantined);
        ("completed_slots", num s.completed);
        ("lost", num (lost s));
      ]
  in
  let store_json =
    Json.Object
      ([
         ("enabled", Json.Bool (t.store <> None));
         ( "path",
           Json.String
             (match t.store with Some st -> Store.dir st | None -> "") );
         ("hits", num s.store_hits);
         ("misses", num s.store_misses);
         ("invalidated", num s.store_invalidated);
         ("writes", num s.store_writes);
         ("hit_rate", Json.Number (store_hit_rate s));
       ]
      @
      match t.store with
      | None -> []
      | Some st -> [ ("entries", num (Store.stats st).Store.s_live) ])
  in
  Json.Object
    [
      ("jobs", num t.n_jobs);
      ("submitted", num s.submitted);
      ("executed", num s.executed);
      ("cache_hits", num s.cache_hits);
      ("cache_hit_rate", Json.Number (hit_rate s));
      ("completed", num s.completed);
      ("quarantined", num s.quarantined);
      ("engine_wall_seconds", Json.Number s.wall_seconds);
      ("store", store_json);
      ("faults", fault_json);
      ("workers", Json.List (List.map worker_json (worker_stats t)));
    ]
