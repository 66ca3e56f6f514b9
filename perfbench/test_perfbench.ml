(* Tests of the benchmark's own logic: nearest-rank percentiles, the
   refusal of percentiles with fewer than ten samples beyond them, the
   span self-time arithmetic, and the stability of the outcome digest. *)

open Perfbench

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let ok_value = function Ok v -> v | Error msg -> Alcotest.fail msg

let test_percentile () =
  let a = ascending 1000 in
  Alcotest.(check (float 0.0)) "p50 of 1..1000" 500.0 (ok_value (Stats.percentile a 0.50));
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 (ok_value (Stats.percentile a 0.99));
  Alcotest.(check int) "rank 0.99 of 1000" 990 (Stats.rank 1000 0.99);
  Alcotest.(check int) "rank 0.5 of 3" 2 (Stats.rank 3 0.5);
  Alcotest.(check int) "rank clamps to 1" 1 (Stats.rank 5 0.0);
  Alcotest.(check (float 0.0)) "median of even count" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_guard () =
  Alcotest.(check int) "samples for p99" 1000 (Stats.samples_needed 0.99);
  Alcotest.(check int) "samples for p50" 20 (Stats.samples_needed 0.50);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond 1000 0.99);
  (match Stats.percentile (ascending 999) 0.99 with
  | Ok _ -> Alcotest.fail "p99 of 999 samples has 9 beyond it and must be refused"
  | Error _ -> ());
  (match Stats.percentile [||] 0.5 with
  | Ok _ -> Alcotest.fail "a percentile of no samples must be refused"
  | Error _ -> ());
  (* full clock resolution: sub-microsecond differences survive *)
  let ns = Array.init 1000 (fun i -> 30_000.0 +. (0.5 *. float_of_int i)) in
  Alcotest.(check (float 0.0)) "ns p50 kept exact" 30_249.5 (ok_value (Stats.percentile ns 0.5))

let events ?(nan_every = 0) ?(burst = false) n =
  let e = Stats.Events.create () in
  for i = 0 to n - 1 do
    let lat =
      if nan_every > 0 && i mod nan_every = 0 then Float.nan
      else if burst && i < 1000 then 1e9
      else float_of_int (1000 + (i mod 100))
    in
    Stats.Events.add e ~at:(float_of_int (i + 1) *. 1e6) ~ops:1 ~lat
  done;
  e

let test_windows () =
  let get e =
    match Stats.summarize ~start_ns:0.0 [ e ] with Ok s -> s | Error m -> Alcotest.fail m
  in
  let s = get (events 3000) in
  Alcotest.(check int) "one window per 1000 samples" 3 (List.length s.per_window);
  Alcotest.(check (float 1e-6)) "window throughput" 1000.0 s.ops_per_s;
  Alcotest.(check (float 0.0)) "window p50" 1049.0 s.p50_ns;
  Alcotest.(check (float 0.0)) "window p99" 1098.0 s.p99_ns;
  let b = get (events ~burst:true 3000) in
  Alcotest.(check (float 0.0)) "a burst moves one window, not the median" 1098.0 b.p99_ns;
  (* events without a latency sample count as ops, not as samples *)
  let n = get (events ~nan_every:10 3000) in
  Alcotest.(check int) "windows hold latency samples" 2 (List.length n.per_window);
  Alcotest.(check bool) "ops without latency still count" true (n.ops_per_s > 999.0);
  match Stats.summarize ~start_ns:0.0 [ events 999 ] with
  | Ok _ -> Alcotest.fail "999 samples cannot give a p99 with 10 beyond it"
  | Error _ -> ()

let test_self_times () =
  Spans.reset ();
  Spans.with_span "outer" (fun () ->
      Spans.with_span "inner" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0)));
      Spans.with_span "inner" (fun () -> ()));
  let totals = Spans.self_times !Spans.recorded in
  Alcotest.(check int) "inner calls" 2 (Spans.calls totals "inner");
  let outer = List.find (fun (s : Spans.span) -> s.name = "outer") !Spans.recorded in
  let inner_ns = snd (Hashtbl.find totals "inner")
  and outer_ns = snd (Hashtbl.find totals "outer") in
  Alcotest.(check (float 1.0))
    "self times add up to the root" (Spans.duration outer) (inner_ns +. outer_ns);
  Spans.reset ()

let block text =
  match X86.Parser.block text with Ok b -> b | Error msg -> Alcotest.fail msg

let jobs () =
  let env = Manifest.Spec.environment_of_filters Manifest.Spec.default_filters in
  List.concat_map
    (fun uarch ->
      List.map
        (fun t -> { Engine.env; uarch; block = block t })
        [ "add rax, rbx"; "imul rcx, rdx\nadd rcx, 1"; "mov rax, qword ptr [rbx]" ])
    Uarch.All.all

let digest_with workers =
  let engine = Engine.create ~jobs:workers ~faults:Faultsim.none () in
  Stats.outcome_sha256 (Array.to_list (Engine.run_batch engine (jobs ())).outcomes)

let test_digest () =
  Alcotest.(check string) "sha256 of two lines"
    (Store.Sha256.hex "a\nb\n")
    (Stats.digest_rendered [ "a"; "b" ]);
  Alcotest.(check bool) "order matters" false
    (Stats.digest_rendered [ "a"; "b" ] = Stats.digest_rendered [ "b"; "a" ]);
  let d1 = digest_with 1 in
  Alcotest.(check string) "same jobs, fresh engine" d1 (digest_with 1);
  Alcotest.(check string) "independent of worker count" d1 (digest_with 2)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "percentile refusal guard" `Quick test_guard;
          Alcotest.test_case "windowed medians" `Quick test_windows;
          Alcotest.test_case "span self times" `Quick test_self_times;
          Alcotest.test_case "outcome digest stability" `Quick test_digest;
        ] );
    ]
