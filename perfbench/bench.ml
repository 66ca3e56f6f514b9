(* The benchmark's entry point: one workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --tmp DIR --serve-exe PATH

   prints progress lines, the workload's outcome digest and host probe,
   and as its last line one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics of the traced replay with
   [--trace 1]. perfbench/run.py builds it and supplies DIR and PATH. *)

open Common

(* serve-hot runs one connection, with the daemon and the connection
   each on a core of its own. With two connections, each process's two
   threads share its runtime lock, and on ~20 us requests the run's
   throughput moved in phases with how their hand-offs fell. Over six
   seeds of 35 s runs on a shared 2-vCPU host, the spread (interquartile
   range over median) of serve-hot's ops_per_s was 0.14 with one
   unpinned connection and 0.09 with the split cores (0.22 and 0.17 in
   another six, while the host slowed). serve-batch's 16-block frames
   give two connections work to overlap, and two unpinned ones were its
   steadiest choice (0.10, against 0.26 with split cores; one connection
   gave 0.17 unpinned and ranged 26k-48k ops/s over five seeds split).
   perfbench/WORKLOADS.md has the sets. *)
let workloads =
  [
    ("measure-cold", Measure.cold);
    ("measure-warm", Measure.warm);
    ("serve-hot", Serving.run ~batch:1 ~conns:1 ~split:true);
    ("serve-batch", Serving.run ~batch:16 ~conns:connections ~split:false);
  ]

let () =
  let args = parse_args () in
  let run =
    match List.assoc_opt args.workload workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "bench: unknown workload %S\n" args.workload;
      exit 2
  in
  at_exit Serving.stop_all;
  let probe_before = probe_ms () in
  setup_origin := now_ns ();
  match run args with
  | r ->
    let probe_after = probe_ms () in
    let probe = (probe_before +. probe_after) /. 2.0 in
    say "%s seed %d: outcome_sha256 %s" args.workload args.seed r.digest;
    say "%s seed %d: host.probe_ms before %.3f after %.3f" args.workload args.seed probe_before
      probe_after;
    say "%s seed %d: %d attempted, %d failed, correct %b" args.workload args.seed r.attempted
      r.failed r.correct;
    let r =
      if args.trace then begin
        Perfbench.Spans.write
          (Filename.concat (Filename.dirname args.tmp)
             (Printf.sprintf "spans-%s-%d.jsonl" args.workload args.seed));
        { r with metrics = r.metrics @ [ ("host.probe_ms", probe, "ms") ] }
      end
      else r
    in
    List.iter
      (fun (name, v, unit) ->
        say "%s seed %d: %s %.6g %s" args.workload args.seed name v unit)
      r.metrics;
    emit r
  | exception e ->
    Serving.stop_all ();
    Printf.eprintf "bench: %s failed: %s\n%!" args.workload (Printexc.to_string e);
    exit 1
