(* Tests for the supervising measurement engine: determinism of
   parallel batches versus the sequential path, memoisation,
   worker-count independence, byte-identical recovery under injected
   worker crashes, the no-lost-jobs accounting identity, and the
   pinned crash-draw stream. *)

let config = { Corpus.Suite.default_config with scale = 2000 }
let blocks = lazy (Corpus.Suite.generate ~config ())

(* a thinner slice for the (workers x fault seeds) matrix, which builds
   the same dataset ten times *)
let chaos_blocks =
  lazy (List.filteri (fun i _ -> i mod 3 = 0) (Lazy.force blocks))

let all_uarches =
  [ Uarch.All.ivy_bridge; Uarch.All.haswell; Uarch.All.skylake ]

(* Strip the engine out of the comparison: datasets are plain data. *)
let build ~jobs uarch =
  Bhive.Dataset.build ~engine:(Engine.create ~jobs ()) uarch (Lazy.force blocks)

let check_datasets_equal what (a : Bhive.Dataset.t) (b : Bhive.Dataset.t) =
  Alcotest.(check int) (what ^ ": n_input") a.n_input b.n_input;
  Alcotest.(check int) (what ^ ": n_avx2") a.n_avx2_excluded b.n_avx2_excluded;
  Alcotest.(check int)
    (what ^ ": entry count")
    (List.length a.entries) (List.length b.entries);
  Alcotest.(check bool) (what ^ ": entries identical") true (a.entries = b.entries);
  Alcotest.(check bool) (what ^ ": failures identical") true (a.failures = b.failures);
  Alcotest.(check bool) (what ^ ": rejected identical") true (a.rejected = b.rejected);
  Alcotest.(check bool) (what ^ ": quarantined identical") true
    (a.quarantined = b.quarantined)

let test_parallel_matches_sequential () =
  List.iter
    (fun (u : Uarch.Descriptor.t) ->
      check_datasets_equal ("parallel vs sequential on " ^ u.short)
        (build ~jobs:1 u) (build ~jobs:4 u))
    all_uarches

let test_worker_count_independent () =
  let u = Uarch.All.haswell in
  let ds1 = build ~jobs:1 u in
  List.iter
    (fun jobs ->
      check_datasets_equal (Printf.sprintf "jobs=%d vs jobs=1" jobs) ds1
        (build ~jobs u))
    [ 2; 4 ]

let test_memo_cache_hits () =
  let engine = Engine.create ~jobs:1 ~faults:Faultsim.none () in
  let job =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  let first = Engine.run_batch engine [ job ] in
  let s1 = Engine.stats engine in
  Alcotest.(check int) "first submission executes" 1 s1.executed;
  Alcotest.(check int) "no hit yet" 0 s1.cache_hits;
  let again = Engine.run_batch engine [ job ] in
  let s2 = Engine.stats engine in
  Alcotest.(check int) "resubmission does not execute" 1 s2.executed;
  Alcotest.(check int) "resubmission hits the cache" 1 s2.cache_hits;
  Alcotest.(check bool) "memoised result identical" true
    (first.outcomes.(0) = again.outcomes.(0))

(* A peek is a probe, not a submission: a memo hit leaves [submitted]
   and [cache_hits] alone, so [cache_hits = submitted - executed] holds
   however often a dispatcher peeks. *)
let test_peek_keeps_accounting () =
  let engine = Engine.create ~jobs:1 ~faults:Faultsim.none () in
  let job =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  let batch = Engine.run_batch engine [ job ] in
  Alcotest.(check bool) "peek answers the memoised outcome" true
    (Engine.peek engine job = Some batch.outcomes.(0));
  let s = Engine.stats engine in
  Alcotest.(check (list int)) "submitted, executed, cache_hits" [ 1; 1; 0 ]
    [ s.submitted; s.executed; s.cache_hits ];
  Alcotest.(check int) "cache_hits = submitted - executed"
    (s.submitted - s.executed) s.cache_hits

let test_batch_dedup () =
  let engine = Engine.create ~jobs:2 ~faults:Faultsim.none () in
  let job block =
    { Engine.env = Harness.Environment.default; uarch = Uarch.All.haswell; block }
  in
  let a = job Corpus.Paper_blocks.gzip_crc in
  let b = job Corpus.Paper_blocks.division in
  let { Engine.outcomes; _ } = Engine.run_batch engine [ a; b; a; a; b ] in
  let s = Engine.stats engine in
  Alcotest.(check int) "submitted" 5 s.submitted;
  Alcotest.(check int) "only unique jobs execute" 2 s.executed;
  Alcotest.(check int) "duplicates are hits" 3 s.cache_hits;
  Alcotest.(check bool) "duplicate slots agree" true
    (outcomes.(0) = outcomes.(2) && outcomes.(2) = outcomes.(3));
  Alcotest.(check bool) "order preserved" true (outcomes.(1) = outcomes.(4))

let test_fingerprint_sensitivity () =
  let base =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  Alcotest.(check string) "fingerprint is stable" (Engine.fingerprint base)
    (Engine.fingerprint base);
  Alcotest.(check bool) "uarch changes the fingerprint" false
    (Engine.fingerprint base
    = Engine.fingerprint { base with uarch = Uarch.All.skylake });
  Alcotest.(check bool) "env changes the fingerprint" false
    (Engine.fingerprint base
    = Engine.fingerprint
        { base with env = Harness.Environment.agner_baseline });
  Alcotest.(check bool) "block changes the fingerprint" false
    (Engine.fingerprint base
    = Engine.fingerprint { base with block = Corpus.Paper_blocks.division })

let test_progress_hook () =
  let calls = ref [] in
  let engine =
    Engine.create ~jobs:1 ~faults:Faultsim.none
      ~progress:(fun ~done_ ~total -> calls := (done_, total) :: !calls)
      ()
  in
  let job block =
    { Engine.env = Harness.Environment.default; uarch = Uarch.All.haswell; block }
  in
  ignore
    (Engine.run_batch engine
       [ job Corpus.Paper_blocks.gzip_crc; job Corpus.Paper_blocks.division ]);
  Alcotest.(check (list (pair int int)))
    "progress reported per executed job" [ (1, 2); (2, 2) ] (List.rev !calls)

(* The engine's report holds its own counters and nothing per section
   (the run's journal records those), and the process-wide registry
   keeps no twin of any [stats] counter: of the engine's registry
   counters only the mapping memo's, which no report field carries,
   remain. *)
let test_summary_json () =
  let engine = Engine.create ~jobs:1 ~faults:Faultsim.none () in
  let job =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  ignore (Engine.run_batch engine [ job ]);
  ignore (Engine.run_batch engine [ job ]);
  let json = Engine.summary_json engine in
  let has k = Telemetry.Json.member k json <> None in
  Alcotest.(check (option (float 0.0))) "json reports the hit rate" (Some 0.5)
    (Option.bind (Telemetry.Json.member "cache_hit_rate" json)
       Telemetry.Json.number);
  Alcotest.(check bool) "json reports the fault block" true (has "faults");
  Alcotest.(check bool) "json has no per-phase sections" false (has "sections");
  let engine_counters =
    match
      Telemetry.Json.member "counters" (Telemetry.Metrics.snapshot ())
    with
    | Some (Telemetry.Json.Object kvs) ->
      List.filter (String.starts_with ~prefix:"engine.") (List.map fst kvs)
    | _ -> Alcotest.fail "snapshot has no counters object"
  in
  Alcotest.(check bool) "no engine.submitted twin in the registry" false
    (List.mem "engine.submitted" engine_counters);
  Alcotest.(check (list string)) "the registry's engine counters"
    [ "engine.mapping_memo.hits"; "engine.mapping_memo.misses" ]
    engine_counters

(* --- fault injection ------------------------------------------------- *)

let faults_of spec =
  match Faultsim.parse spec with
  | Ok c -> c
  | Error msg -> Alcotest.fail (Printf.sprintf "bad fault spec %S: %s" spec msg)

let chaos_build ~jobs ~faults uarch =
  Bhive.Dataset.build
    ~engine:(Engine.create ~jobs ~faults ())
    uarch
    (Lazy.force chaos_blocks)

(* The tentpole guarantee: under recoverable fault rates, accepted
   output is byte-identical to the fault-free run for every (worker
   count, fault seed) combination — the matrix ISSUE.md pins down. *)
let test_chaos_matrix () =
  let u = Uarch.All.haswell in
  let clean = chaos_build ~jobs:1 ~faults:Faultsim.none u in
  Alcotest.(check bool) "fault-free run quarantines nothing" true
    (clean.quarantined = []);
  List.iter
    (fun seed ->
      List.iter
        (fun jobs ->
          let faults =
            faults_of (Printf.sprintf "crash=0.03,seed=%d" seed)
          in
          let ds = chaos_build ~jobs ~faults u in
          check_datasets_equal
            (Printf.sprintf "jobs=%d seed=%d vs fault-free" jobs seed)
            clean ds)
        [ 1; 2; 4 ])
    [ 0; 42; 1337 ]

(* Accounting identity: whatever the fault rates, every submitted job
   is completed or quarantined — nothing is lost, nothing raises. *)
let test_no_lost_jobs () =
  List.iter
    (fun spec ->
      let engine =
        Engine.create ~jobs:4 ~faults:(faults_of spec) ~max_retries:2 ()
      in
      ignore
        (Bhive.Dataset.build ~engine Uarch.All.haswell
           (Lazy.force chaos_blocks));
      let s = Engine.stats engine in
      Alcotest.(check int) (spec ^ ": no lost jobs") 0 (Engine.lost s);
      Alcotest.(check int)
        (spec ^ ": completed + quarantined = submitted")
        s.submitted
        (s.completed + s.quarantined))
    [
      "crash=0.03,seed=7";
      "crash=0.5,seed=9";
      "crash=0.8,seed=5";
    ]

(* Each counter is one cell, incremented where its event happens — by
   the supervisor or by a worker — so the counts tie out exactly under
   crashes: every crash costs a replacement worker and then a retry or
   a quarantine, every job not quarantined is profiled once and
   persisted once, and a resubmission executes nothing. *)
let test_counters_exact_under_crashes () =
  Test_store.with_store_dir "bhive_engine_counters" (fun dir ->
      let jobs =
        List.sort_uniq
          (fun (a : Engine.job) b ->
            compare (Engine.fingerprint a) (Engine.fingerprint b))
          (List.map
             (fun (b : Corpus.Block.t) ->
               {
                 Engine.env = Harness.Environment.default;
                 uarch = Uarch.All.haswell;
                 block = b.insts;
               })
             (Lazy.force chaos_blocks))
      in
      let n = List.length jobs in
      Alcotest.(check bool) "at least 20 distinct jobs" true (n >= 20);
      let store = Store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          let engine =
            Engine.create ~jobs:4 ~faults:(faults_of "crash=0.3,seed=3") ~store
              ()
          in
          ignore (Engine.run_batch engine jobs);
          let s = Engine.stats engine in
          let q = List.length (Engine.quarantines engine) in
          Alcotest.(check bool) "the rate crashes workers" true (s.crashes > 0);
          Alcotest.(check int) "crashes = workers replenished" s.crashes
            s.workers_replenished;
          Alcotest.(check int) "crashes = retries + quarantined jobs" s.crashes
            (s.retries + q);
          Alcotest.(check int) "profiler calls = executed - quarantined jobs"
            (s.executed - q) s.profiler_calls;
          Alcotest.(check int) "profiler calls = store writes" s.profiler_calls
            s.store_writes;
          Alcotest.(check int) "completed + quarantined = submitted" n
            (s.completed + s.quarantined);
          Alcotest.(check int) "every distinct job executed" n s.executed;
          ignore (Engine.run_batch engine jobs);
          let s2 = Engine.stats engine in
          Alcotest.(check int) "resubmission executes nothing" s.executed
            s2.executed;
          Alcotest.(check int) "resubmission is n cache hits" (s.cache_hits + n)
            s2.cache_hits;
          Alcotest.(check int) "still nothing lost" 0 (Engine.lost s2)))

(* Unrecoverable rates produce quarantines; the manifest must be stable
   across worker counts (same jobs, same attempt histories, same
   order). *)
let test_quarantine_manifest_stable () =
  let faults = faults_of "crash=0.6,seed=11" in
  let run jobs =
    let engine = Engine.create ~jobs ~faults ~max_retries:1 () in
    ignore
      (Bhive.Dataset.build ~engine Uarch.All.haswell (Lazy.force chaos_blocks));
    let path = Filename.temp_file "bhive_quarantine" ".jsonl" in
    let n = Engine.write_quarantine_manifest engine path in
    let contents = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    (Engine.quarantines engine, n, contents)
  in
  let q1, n1, m1 = run 1 in
  Alcotest.(check bool) "crash=0.6 with one retry quarantines something" true
    (n1 > 0);
  Alcotest.(check int) "manifest counts its records" (List.length q1) n1;
  List.iter
    (fun jobs ->
      let q, n, m = run jobs in
      Alcotest.(check int) (Printf.sprintf "jobs=%d: same count" jobs) n1 n;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: same quarantine records" jobs)
        true (q = q1);
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d: byte-identical manifest" jobs)
        m1 m)
    [ 2; 4 ]

(* Certain crash: the worker domain dies on every attempt. The
   supervisor must replenish the pool each time and quarantine after
   the retry budget — and a resubmission of the quarantined
   fingerprint must be a cache hit, not a re-run. *)
let test_certain_crash_supervision () =
  let engine =
    Engine.create ~jobs:2 ~faults:(faults_of "crash=1,seed=2") ~max_retries:3 ()
  in
  let job =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  let { Engine.outcomes; quarantined } = Engine.run_batch engine [ job ] in
  (match (outcomes.(0), quarantined) with
  | Error (Engine.Quarantined q), [ q' ] ->
    Alcotest.(check bool) "batch manifest carries the quarantine" true (q = q');
    Alcotest.(check int) "4 attempts (1 + 3 retries)" 4 q.q_attempts;
    let compact = Telemetry.Json.to_string ~compact:true in
    Alcotest.(check string) "failures.jsonl record"
      (Printf.sprintf
         {|{"fingerprint":"%s","uarch":"hsw","block_insts":%d,"attempts":4}|}
         q.q_fingerprint q.q_block_insts)
      (compact (Engine.quarantine_json q));
    Alcotest.(check string) "served reply"
      (Printf.sprintf
         {|{"status":"quarantined","fingerprint":"%s","attempts":4}|}
         q.q_fingerprint)
      (compact (Serve.Wire.outcome_json outcomes.(0)))
  | _ -> Alcotest.fail "expected exactly one quarantined job");
  let s = Engine.stats engine in
  Alcotest.(check int) "slot accounted as quarantined" 1 s.quarantined;
  Alcotest.(check int) "4 crashes" 4 s.crashes;
  Alcotest.(check int) "3 retries" 3 s.retries;
  Alcotest.(check int) "a replacement domain per crash" 4
    s.workers_replenished;
  Alcotest.(check int) "the profiler never ran" 0 s.profiler_calls;
  (* resubmission: the quarantine is memoised like any other outcome *)
  let again = Engine.run_batch engine [ job ] in
  let s2 = Engine.stats engine in
  Alcotest.(check bool) "quarantined outcome memoised" true
    (again.outcomes.(0) = outcomes.(0));
  Alcotest.(check bool) "no fresh quarantine on resubmission" true
    (again.quarantined = []);
  Alcotest.(check int) "resubmission is a cache hit" 1 s2.cache_hits;
  Alcotest.(check int) "still zero lost" 0 (Engine.lost s2)

(* --- Faultsim -------------------------------------------------------- *)

let test_faultsim_parse () =
  (match Faultsim.parse "crash=0.01,seed=42" with
  | Ok c ->
    Alcotest.(check (float 0.0)) "crash" 0.01 c.crash;
    Alcotest.(check int64) "seed" 42L c.seed;
    Alcotest.(check string) "canonical form" "crash=0.01,seed=42"
      (Faultsim.to_string c)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "15 significant digits survive"
    "crash=0.333333333333333,seed=0"
    (Faultsim.to_string { Faultsim.none with crash = 0.333333333333333 });
  Alcotest.(check bool) "empty spec is none" true
    (Faultsim.parse "" = Ok Faultsim.none);
  Alcotest.(check bool) "'none' is none" true
    (Faultsim.parse "none" = Ok Faultsim.none);
  let rejects spec =
    Alcotest.(check bool)
      (Printf.sprintf "%S rejected" spec)
      true
      (Result.is_error (Faultsim.parse spec))
  in
  rejects "crash=1.5";
  rejects "crash=-0.1";
  rejects "crash=abc";
  rejects "seed=x";
  rejects "bogus=1";
  rejects "crash";
  (* the fault kinds a crash-only substrate no longer injects *)
  Alcotest.(check bool) "stall= refused on one line" true
    (Faultsim.parse "crash=0.02,stall=0.01,seed=7"
    = Error {|unknown key "stall" (expected crash or seed)|});
  rejects "corrupt=0.002"

(* Every config's to_string must parse back to the same config: a
   manifest's id and its --emit-manifest rendering depend on it. *)
let test_faultsim_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"faultsim: to_string round-trips" ~count:1000
       QCheck.(pair (float_bound_inclusive 1.0) int64)
       (fun (crash, seed) ->
         let c = { Faultsim.crash; seed } in
         Faultsim.parse (Faultsim.to_string c) = Ok c))

let crash_draws c fingerprint =
  String.init 64 (fun attempt ->
      if Faultsim.crashes c ~fingerprint ~attempt then '1' else '0')

let test_faultsim_draw_deterministic () =
  let c = faults_of "crash=0.2,seed=42" in
  Alcotest.(check string) "same key, same crashes" (crash_draws c "job-a")
    (crash_draws c "job-a");
  Alcotest.(check bool) "different fingerprints, different streams" true
    (crash_draws c "job-a" <> crash_draws c "job-b");
  Alcotest.(check bool) "different seeds, different streams" true
    (crash_draws (faults_of "crash=0.2,seed=43") "job-a"
    <> crash_draws c "job-a");
  Alcotest.(check string) "none never crashes" (String.make 64 '0')
    (crash_draws Faultsim.none "x")

(* Which attempts of which jobs a chaos seed crashes is pinned: the
   draw key ("fingerprint\x00attempt\x000") and the SplitMix64 stream
   order must never shift, or a seeded chaos run would silently crash
   different jobs than before. *)
let test_faultsim_crash_stream_golden () =
  Alcotest.(check string) "crash=0.2,seed=42, job-a, attempts 0-63"
    "1000000010000110001000011001001100000000100000100011010100111000"
    (crash_draws (faults_of "crash=0.2,seed=42") "job-a")

let suite =
  [
    Alcotest.test_case "parallel = sequential (ivb/hsw/skl)" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "worker-count independence (1/2/4)" `Quick
      test_worker_count_independent;
    Alcotest.test_case "memo cache hits" `Quick test_memo_cache_hits;
    Alcotest.test_case "peek keeps the accounting identity" `Quick
      test_peek_keeps_accounting;
    Alcotest.test_case "in-batch dedup" `Quick test_batch_dedup;
    Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
    Alcotest.test_case "progress hook" `Quick test_progress_hook;
    Alcotest.test_case "summary_json" `Quick test_summary_json;
    Alcotest.test_case "chaos matrix: workers x seeds byte-identical" `Quick
      test_chaos_matrix;
    Alcotest.test_case "no lost jobs under any fault rate" `Quick
      test_no_lost_jobs;
    Alcotest.test_case "counters are exact under crashes" `Quick
      test_counters_exact_under_crashes;
    Alcotest.test_case "quarantine manifest stable across workers" `Quick
      test_quarantine_manifest_stable;
    Alcotest.test_case "certain crash: supervision and quarantine" `Quick
      test_certain_crash_supervision;
    Alcotest.test_case "faultsim: parse" `Quick test_faultsim_parse;
    test_faultsim_round_trip;
    Alcotest.test_case "faultsim: deterministic draws" `Quick
      test_faultsim_draw_deterministic;
    Alcotest.test_case "faultsim: crash stream pinned" `Quick
      test_faultsim_crash_stream_golden;
  ]
