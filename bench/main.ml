(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation, plus speed micro-benchmarks and methodology ablations.

    A thin wrapper since the manifest refactor: the whole run is the
    built-in benchmark manifest ([Manifest.Spec.bench] — print it with
    `--emit-manifest`, or run the checked-in copy with
    `bhive_run examples/bench.manifest.json`). Output goes to stdout;
    `dune exec bench/main.exe | tee bench_output.txt` reproduces the
    full evaluation. The corpus scale is controlled by BHIVE_SCALE
    (default 100 = 1/100 of the paper's block counts); BHIVE_TRACE
    streams a JSONL span trace alongside the run.

    The run always starts from a fresh journal (`~fresh:true`): bench
    re-executes every section each time — the persistent store
    (BHIVE_STORE) still makes warm runs cheap. Use bhive_run directly
    for resumable runs.

    Simulator throughput is reported in the summary's [perf] object
    ([blocks_per_sec]: simulated blocks per in-simulator core-second)
    and gated in CI against bench/baseline_summary.json with
    [bhive_bench_diff --gate 'perf.blocks_per_sec >= 0.8x']. The
    flat-table/zero-allocation
    fast path (DESIGN.md §9) measured 5.15x over the original cycle
    loop on this manifest (211.7 -> 1090.2 blocks/sec, matched
    back-to-back runs at BHIVE_JOBS=2), against a 3x target. *)

let () = Telemetry.Trace.init_from_env ()

(* Fail fast on malformed engine environment (BHIVE_JOBS, BHIVE_FAULTS,
   BHIVE_STORE) — a bench run that silently ignored its configuration
   would gate CI on the wrong numbers. *)
let () =
  match Engine.validate_env () with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("bench: " ^ msg);
    exit 2

let () =
  let config = Corpus.Suite.config_from_env () in
  let spec = Manifest.Spec.bench ~scale:config.Corpus.Suite.scale () in
  if Array.exists (( = ) "--emit-manifest") Sys.argv then begin
    print_string (Manifest.Spec.to_string spec);
    exit 0
  end;
  Format.printf "BHive reproduction benchmark harness (scale 1/%d)@."
    config.Corpus.Suite.scale;
  match Manifest.Runner.run ~fresh:true spec with
  | Error msg ->
    prerr_endline ("bench: " ^ msg);
    exit 2
  | Ok (o : Manifest.Runner.outcome) ->
    if o.lost <> 0 then begin
      Format.eprintf "FATAL: %d job(s) lost@." o.lost;
      exit 1
    end;
    Format.printf "@.done.@."
