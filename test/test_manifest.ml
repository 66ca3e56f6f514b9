(* Tests for the declarative experiment manifests: canonical encoding
   and pinned golden ids, checked-in example round-trips, validation
   and output-path errors, the crash-safe journal (torn tails,
   manifest mismatch, mid-file corruption refusal), and the resume
   property — kill a run at a section boundary or mid-section, resume
   it (with a different worker count), and the final summary is
   byte-identical to an uninterrupted run's once volatile fields are
   stripped, with zero duplicate profiler calls. *)

module Spec = Manifest.Spec
module Journal = Manifest.Journal
module Runner = Manifest.Runner
module Json = Telemetry.Json

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let read_file path = In_channel.with_open_text path In_channel.input_all
let write_file path s = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

(* a formatter that swallows everything: the resume tests only care
   about journals and summaries, not stdout *)
let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* --- canonical ids ---------------------------------------------------- *)

(* The id is SHA-256 over a versioned canonical byte encoding: the same
   manifest must hash to the same id on every machine and every
   revision that doesn't consciously bump the encoding version. These
   pins are the CI tripwire for accidental encoding changes. *)
let pinned_manifest_id =
  "1fcfbbbd04da4f27eff0390dd4265a9f985736c44123a9a0ee060e91f9b2fe7d"

let pinned_experiment_id =
  "ed373f1ef2462a0597a51ca3648cea50b9be187485f737189ff136511885130c"

let test_golden_ids () =
  let spec = Spec.bench ~scale:2000 () in
  Alcotest.(check string) "manifest id pinned" pinned_manifest_id (Spec.id spec);
  Alcotest.(check string) "experiment id pinned" pinned_experiment_id
    (Spec.experiment_id spec);
  (* deterministic: computing twice gives the same bytes *)
  Alcotest.(check string) "id stable across calls" (Spec.id spec) (Spec.id spec)

let test_id_sensitivity () =
  let base = Spec.bench ~scale:2000 () in
  let renamed = { base with Spec.name = "other" } in
  Alcotest.(check bool) "name changes manifest id" false
    (Spec.id base = Spec.id renamed);
  Alcotest.(check string) "name does not change experiment id"
    (Spec.experiment_id base)
    (Spec.experiment_id renamed);
  let rescaled = { base with Spec.corpus = { base.Spec.corpus with Spec.scale = 100 } } in
  Alcotest.(check bool) "scale changes experiment id" false
    (Spec.experiment_id base = Spec.experiment_id rescaled)

(* --- example manifests ------------------------------------------------ *)

(* The checked-in examples, found from the test binary's own directory
   so the suite passes whatever directory it is started from. *)
let example name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../examples")
    name

let test_bench_example_round_trip () =
  let path = example "bench.manifest.json" in
  let text = read_file path in
  let spec =
    match Spec.of_string text with
    | Ok s -> s
    | Error m -> Alcotest.fail ("bench example does not parse: " ^ m)
  in
  (* the checked-in file is exactly the canonical rendering of the
     built-in bench manifest *)
  Alcotest.(check string) "file is canonical" text (Spec.to_string spec);
  Alcotest.(check string) "file equals Spec.bench ~scale:2000"
    (Spec.to_string (Spec.bench ~scale:2000 ()))
    text;
  Alcotest.(check string) "manifest id" pinned_manifest_id (Spec.id spec)

let test_validate_example_parses () =
  match Spec.load (example "validate.manifest.json") with
  | Error m -> Alcotest.fail m
  | Ok spec ->
    Alcotest.(check (result unit string)) "validates" (Ok ()) (Spec.validate spec);
    Alcotest.(check string) "round-trips"
      (read_file (example "validate.manifest.json"))
      (Spec.to_string spec)

let test_chaos_example_same_experiment () =
  let bench = Result.get_ok (Spec.load (example "bench.manifest.json")) in
  let chaos = Result.get_ok (Spec.load (example "chaos.manifest.json")) in
  Alcotest.(check string) "same experiment id" (Spec.experiment_id bench)
    (Spec.experiment_id chaos);
  Alcotest.(check bool) "different manifest id" false
    (Spec.id bench = Spec.id chaos)

(* --- validation ------------------------------------------------------- *)

let check_invalid what spec needle =
  match Spec.validate spec with
  | Ok () -> Alcotest.fail (what ^ ": accepted an invalid manifest")
  | Error msg ->
    Alcotest.(check bool)
      (what ^ ": message mentions " ^ needle)
      true
      (contains ~needle msg)

let test_validate_errors () =
  let s sections = Spec.make ~sections () in
  check_invalid "empty sections" (s []) "section";
  check_invalid "bad scale"
    { (s [ Spec.section Spec.Corpus_load ]) with
      Spec.corpus = { Spec.scale = 0; seed = None } }
    "scale";
  check_invalid "unknown uarch"
    (Spec.make ~uarches:[ "znver4" ] ~sections:[ Spec.section Spec.Corpus_load ] ())
    "znver4";
  check_invalid "unknown model"
    (Spec.make ~models:[ "oracle" ] ~sections:[ Spec.section Spec.Corpus_load ] ())
    "oracle";
  check_invalid "unknown paper block"
    (s [ Spec.section (Spec.Ablation_block { block = "doom" }) ])
    "doom";
  check_invalid "dataset uarch outside experiment"
    (Spec.make ~uarches:[ "skl" ]
       ~sections:[ Spec.section (Spec.Dataset { uarch = "hsw" }) ]
       ())
    "hsw";
  check_invalid "duplicate section names"
    (s [ Spec.section Spec.Corpus_load; Spec.section Spec.Corpus_load ])
    "duplicate";
  check_invalid "unparseable profile block"
    (s
       [
         Spec.section
           (Spec.Profile
              { asm = "not asm at all %%"; uarch = "hsw"; with_models = false;
                schedule = false });
       ])
    "profile";
  check_invalid "negative max_retries"
    (Spec.make ~max_retries:(-1) ~sections:[ Spec.section Spec.Corpus_load ] ())
    "max_retries"

let test_validate_outputs () =
  let bad = Filename.concat (Filename.get_temp_dir_name ()) "no-such-dir-bhive" in
  let spec =
    Spec.make
      ~output:
        { Spec.default_output with
          summary = Some (Filename.concat bad "summary.json") }
      ~sections:[ Spec.section Spec.Corpus_load ]
      ()
  in
  match Spec.validate_outputs spec with
  | Ok () -> Alcotest.fail "accepted a summary path in a missing directory"
  | Error msg ->
    Alcotest.(check bool) "one-line message" false (String.contains msg '\n');
    Alcotest.(check bool) "names the path" true (contains ~needle:bad msg)

let test_parse_errors () =
  let bad what text needle =
    match Spec.of_string text with
    | Ok _ -> Alcotest.fail (what ^ ": parsed")
    | Error msg ->
      Alcotest.(check bool) (what ^ ": mentions " ^ needle) true
        (contains ~needle msg)
  in
  bad "not json" "{" "manifest";
  bad "wrong version" {|{"manifest_version": 99, "sections": []}|} "version";
  bad "missing sections" {|{"manifest_version": 1}|} "section";
  (* keys an older manifest may still carry (policy.quorum, a stall
     rate) are refused, not silently ignored *)
  let corpus_only fields =
    Printf.sprintf
      {|{"manifest_version": 1, %s, "sections": [{"kind": "corpus"}]}|}
      fields
  in
  bad "leftover policy.quorum" (corpus_only {|"policy": {"quorum": 3}|})
    {|policy: unknown key "quorum"|};
  bad "leftover stall rate"
    (corpus_only {|"faults": "crash=0.02,stall=0.01,seed=7"|})
    {|unknown key "stall"|}

(* --- crash-safe JSONL substrate --------------------------------------- *)

let test_jsonl_torn_tail () =
  let path = Filename.temp_file "bhive_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "{\"a\":1}\n{\"b\":2}\n{\"torn";
      let valid l = Result.is_ok (Json.parse l) in
      match Store.Jsonl.open_ ~valid path with
      | Error m -> Alcotest.fail m
      | Ok (t, lines) ->
        Store.Jsonl.close t;
        Alcotest.(check (list string)) "torn tail truncated"
          [ "{\"a\":1}"; "{\"b\":2}" ] lines;
        Alcotest.(check string) "file physically truncated"
          "{\"a\":1}\n{\"b\":2}\n" (read_file path))

let test_jsonl_append_after_truncate () =
  let path = Filename.temp_file "bhive_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "{\"a\":1}\n{\"half";
      let valid l = Result.is_ok (Json.parse l) in
      let t, _ = Result.get_ok (Store.Jsonl.open_ ~valid path) in
      Store.Jsonl.append t "{\"c\":3}";
      Store.Jsonl.close t;
      Alcotest.(check string) "append lands after the truncated tail"
        "{\"a\":1}\n{\"c\":3}\n" (read_file path))

let test_jsonl_mid_file_corruption_refused () =
  let path = Filename.temp_file "bhive_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "garbage\n{\"a\":1}\n";
      let valid l = Result.is_ok (Json.parse l) in
      match Store.Jsonl.open_ ~valid path with
      | Ok (t, _) ->
        Store.Jsonl.close t;
        Alcotest.fail "opened a file with mid-file corruption"
      | Error msg ->
        Alcotest.(check bool) "refuses to truncate mid-file" true
          (contains ~needle:"refusing" msg))

(* --- journal ---------------------------------------------------------- *)

let test_journal_mismatch_and_fresh () =
  let path = Filename.temp_file "bhive_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Journal.open_ ~manifest_id:"aaaa" path with
      | Error m -> Alcotest.fail m
      | Ok j -> Journal.close j);
      (match Journal.open_ ~manifest_id:"bbbb" path with
      | Ok j ->
        Journal.close j;
        Alcotest.fail "opened another manifest's journal"
      | Error msg ->
        Alcotest.(check bool) "mismatch names both ids" true
          (contains ~needle:"belongs to manifest" msg));
      (* --fresh discards the foreign journal *)
      match Journal.open_ ~fresh:true ~manifest_id:"bbbb" path with
      | Error m -> Alcotest.fail m
      | Ok j ->
        Alcotest.(check int) "fresh journal is empty" 0
          (List.length (Journal.entries j));
        Journal.close j)

let test_journal_records_round_trip () =
  let path = Filename.temp_file "bhive_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let entry =
        {
          Journal.e_index = 0;
          e_section = "corpus";
          e_output = "suite: 42 blocks\nwith \"quotes\" and \xe2\x82\xac\n";
          e_digest = "deadbeef";
          e_submitted = 3;
          e_executed = 2;
          e_cache_hits = 1;
          e_retries = 0;
          e_quarantined = 0;
          e_wall_seconds = 0.5;
        }
      in
      (match Journal.open_ ~fresh:true ~manifest_id:"cccc" path with
      | Error m -> Alcotest.fail m
      | Ok j ->
        Journal.section_start j ~index:0 ~section:"corpus";
        Journal.add j entry;
        Journal.close j);
      match Journal.open_ ~manifest_id:"cccc" path with
      | Error m -> Alcotest.fail m
      | Ok j ->
        Journal.close j;
        (match Journal.find j ~index:0 ~section:"corpus" with
        | None -> Alcotest.fail "entry not found after reopen"
        | Some e ->
          Alcotest.(check string) "output round-trips" entry.Journal.e_output
            e.Journal.e_output;
          Alcotest.(check int) "counters round-trip" 2 e.Journal.e_executed);
        Alcotest.(check bool) "missing entry is absent" true
          (Journal.find j ~index:1 ~section:"other" = None))

let test_journal_digest_deterministic () =
  let pairs = [ ("corpus", "aa"); ("table5", "bb") ] in
  Alcotest.(check string) "digest deterministic" (Journal.digest pairs)
    (Journal.digest pairs);
  Alcotest.(check bool) "digest order-sensitive" false
    (Journal.digest pairs = Journal.digest (List.rev pairs))

(* --- resume ----------------------------------------------------------- *)

let resume_spec root =
  let ( / ) = Filename.concat in
  Spec.make ~name:"resume-test" ~scale:6000 ~uarches:[ "hsw" ]
    ~models:[ "iaca"; "llvm-mca" ]
    ~store:(root / "store")
    ~output:
      {
        Spec.summary = Some (root / "summary.json");
        failures = root / "failures.jsonl";
        journal = Some (root / "journal.jsonl");
        export_prefix = None;
      }
    ~sections:
      [
        Spec.section Spec.Corpus_load;
        Spec.section Spec.Applications;
        Spec.section (Spec.Dataset { uarch = "hsw" });
        Spec.section Spec.Validate;
      ]
    ()

let faults_injected () =
  match Sys.getenv_opt "BHIVE_FAULTS" with
  | Some s when String.trim s <> "" && String.trim s <> "none" -> true
  | _ -> false

let run_ok ?overrides ?max_sections ?kill_after_jobs spec =
  match Runner.run ?overrides ?max_sections ?kill_after_jobs ~out:null_fmt
      ~info:null_fmt spec
  with
  | Ok o -> o
  | Error m -> Alcotest.fail ("runner failed: " ^ m)

let jobs n =
  { Runner.no_overrides with Runner.o_jobs = Some n }

let stripped path =
  Json.to_string (Telemetry.Bench_diff.strip_volatile (Json.parse_exn (read_file path)))

(* One uninterrupted reference run, then kill/resume cells against the
   same store, journal and summary paths (the manifest id covers the
   output paths, so all cells must share them; the journal and summary
   are wiped between cells, the store persists — resuming against a
   warm store is exactly the production scenario). *)
let test_resume_matrix () =
  with_dir "bhive_resume" @@ fun root ->
  let ( / ) = Filename.concat in
  let spec = resume_spec root in
  let reference = run_ok ~overrides:(jobs 2) spec in
  Alcotest.(check bool) "reference run completes" false reference.Runner.interrupted;
  let summary = Json.parse_exn (read_file (root / "summary.json")) in
  Alcotest.(check (option (float 0.0))) "summary stamps the shared schema"
    (Some Telemetry.Bench_diff.schema_version)
    (Option.bind (Json.member "schema_version" summary) Json.number);
  let ref_summary = stripped (root / "summary.json") in
  let ref_digest = Option.get reference.Runner.journal_digest in
  let n0 = reference.Runner.stats.Engine.profiler_calls in
  if not (faults_injected ()) then
    Alcotest.(check bool) "reference run profiles" true (n0 > 0);
  let wipe () =
    List.iter
      (fun f -> if Sys.file_exists (root / f) then Sys.remove (root / f))
      [ "journal.jsonl"; "summary.json"; "failures.jsonl" ]
  in
  let check_cell what (interrupted : Runner.outcome) resume_workers =
    Alcotest.(check bool) (what ^ ": interrupted flag") true
      interrupted.Runner.interrupted;
    Alcotest.(check bool) (what ^ ": interrupted run writes no summary") false
      (Sys.file_exists (root / "summary.json"));
    let resumed = run_ok ~overrides:(jobs resume_workers) spec in
    Alcotest.(check string) (what ^ ": summary byte-identical") ref_summary
      (stripped (root / "summary.json"));
    Alcotest.(check string) (what ^ ": journal digest matches") ref_digest
      (Option.get resumed.Runner.journal_digest);
    if not (faults_injected ()) then
      Alcotest.(check int) (what ^ ": zero duplicate profiler calls") n0
        (resumed.Runner.stats.Engine.profiler_calls
        + resumed.Runner.stats.Engine.store_hits);
    resumed
  in
  (* boundary kills after each section count, resuming with a
     different worker count each time *)
  List.iter
    (fun (k, w) ->
      wipe ();
      let killed = run_ok ~overrides:(jobs 1) ~max_sections:k spec in
      let resumed = check_cell (Printf.sprintf "boundary k=%d" k) killed w in
      Alcotest.(check int)
        (Printf.sprintf "boundary k=%d: sections replayed" k)
        k resumed.Runner.sections_replayed)
    [ (1, 1); (2, 2); (3, 4) ];
  (* mid-section kill: the hook fires after the 5th executed job,
     inside the dataset section's batch. The store is wiped too — the
     hook only counts real executions, so the dataset section must
     actually profile. *)
  List.iter
    (fun w ->
      wipe ();
      rm_rf (root / "store");
      (match
         Runner.run ~overrides:(jobs w) ~kill_after_jobs:5 ~out:null_fmt
           ~info:null_fmt spec
       with
      | exception Runner.Killed -> ()
      | Ok o ->
        Alcotest.fail
          (Printf.sprintf "mid-section kill did not fire (interrupted=%b)"
             o.Runner.interrupted)
      | Error m -> Alcotest.fail m);
      let resumed = run_ok ~overrides:(jobs (5 - w)) spec in
      Alcotest.(check string)
        (Printf.sprintf "mid-section w=%d: summary byte-identical" w)
        ref_summary
        (stripped (root / "summary.json"));
      Alcotest.(check string)
        (Printf.sprintf "mid-section w=%d: journal digest" w)
        ref_digest
        (Option.get resumed.Runner.journal_digest);
      if not (faults_injected ()) then
        Alcotest.(check int)
          (Printf.sprintf "mid-section w=%d: zero duplicate profiler calls" w)
          n0
          (resumed.Runner.stats.Engine.profiler_calls
          + resumed.Runner.stats.Engine.store_hits))
    [ 1; 2 ]

(* A completed journal makes a re-run a full replay: no engine work at
   all, and the summary is rewritten identically. *)
let test_full_replay () =
  with_dir "bhive_replay" @@ fun root ->
  let ( / ) = Filename.concat in
  let spec = resume_spec root in
  let first = run_ok ~overrides:(jobs 2) spec in
  let summary1 = stripped (root / "summary.json") in
  let again = run_ok ~overrides:(jobs 1) spec in
  Alcotest.(check int) "all sections replayed"
    (List.length spec.Spec.sections)
    again.Runner.sections_replayed;
  Alcotest.(check int) "replay profiles nothing" 0
    again.Runner.stats.Engine.profiler_calls;
  Alcotest.(check string) "replay rewrites the same summary" summary1
    (stripped (root / "summary.json"));
  Alcotest.(check string) "same journal digest"
    (Option.get first.Runner.journal_digest)
    (Option.get again.Runner.journal_digest)

let suite =
  [
    Alcotest.test_case "golden ids pinned" `Quick test_golden_ids;
    Alcotest.test_case "id sensitivity" `Quick test_id_sensitivity;
    Alcotest.test_case "bench example round-trip" `Quick
      test_bench_example_round_trip;
    Alcotest.test_case "validate example parses" `Quick
      test_validate_example_parses;
    Alcotest.test_case "chaos example shares experiment id" `Quick
      test_chaos_example_same_experiment;
    Alcotest.test_case "validation errors" `Quick test_validate_errors;
    Alcotest.test_case "output path errors" `Quick test_validate_outputs;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "jsonl torn tail" `Quick test_jsonl_torn_tail;
    Alcotest.test_case "jsonl append after truncate" `Quick
      test_jsonl_append_after_truncate;
    Alcotest.test_case "jsonl mid-file corruption" `Quick
      test_jsonl_mid_file_corruption_refused;
    Alcotest.test_case "journal mismatch and fresh" `Quick
      test_journal_mismatch_and_fresh;
    Alcotest.test_case "journal records round-trip" `Quick
      test_journal_records_round_trip;
    Alcotest.test_case "journal digest deterministic" `Quick
      test_journal_digest_deterministic;
    Alcotest.test_case "kill/resume matrix" `Slow test_resume_matrix;
    Alcotest.test_case "full replay" `Slow test_full_replay;
  ]
