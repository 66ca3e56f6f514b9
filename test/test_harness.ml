open X86

let default = Harness.Environment.default

let test_mapping_crc () =
  (* the motivating example: pointer-chasing CRC block maps in 2 pages *)
  let block = Corpus.Paper_blocks.gzip_crc in
  match Harness.Mapping.run default block ~unroll:100 with
  | Error f -> Alcotest.failf "mapping failed: %s" (Harness.Mapping.failure_to_string f)
  | Ok m ->
    Alcotest.(check int) "two pages mapped" 2 m.faults;
    Alcotest.(check int) "single physical frame" 1 m.distinct_frames

let test_mapping_no_mem () =
  let block = Parser.block_exn "add $1, %rax" in
  match Harness.Mapping.run default block ~unroll:10 with
  | Ok m -> Alcotest.(check int) "no faults" 0 m.faults
  | Error f -> Alcotest.failf "%s" (Harness.Mapping.failure_to_string f)

let test_mapping_disabled () =
  let env = Harness.Environment.agner_baseline in
  let block = Parser.block_exn "mov (%rbx), %rax" in
  (match Harness.Mapping.run env block ~unroll:10 with
  | Error (Harness.Mapping.Mapping_disabled _) -> ()
  | _ -> Alcotest.fail "expected Mapping_disabled");
  (* register-only blocks still run *)
  match Harness.Mapping.run env (Parser.block_exn "add $1, %rax") ~unroll:10 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "%s" (Harness.Mapping.failure_to_string f)

let test_mapping_unmappable () =
  (* double dereference loads the fill pattern, a non-canonical pointer *)
  let block = Parser.block_exn "mov (%rbx), %rax\nmov (%rax), %rcx" in
  match Harness.Mapping.run default block ~unroll:10 with
  | Error (Harness.Mapping.Unmappable_address _) -> ()
  | Ok _ -> Alcotest.fail "expected unmappable"
  | Error f -> Alcotest.failf "wrong failure: %s" (Harness.Mapping.failure_to_string f)

let test_mapping_fault_budget () =
  (* a 2 MiB stride touches a fresh page every copy *)
  let block = Parser.block_exn "mov (%rbx), %rax\nadd $0x200000, %rbx" in
  match Harness.Mapping.run default block ~unroll:100 with
  | Error (Harness.Mapping.Too_many_faults n) ->
    Alcotest.(check int) "budget" default.max_faults n
  | _ -> Alcotest.fail "expected Too_many_faults"

let test_mapping_sigfpe () =
  let block = Parser.block_exn "xor %ecx, %ecx\nxor %edx, %edx\ndivl %ecx" in
  match Harness.Mapping.run default block ~unroll:4 with
  | Error Harness.Mapping.Arithmetic_fault -> ()
  | _ -> Alcotest.fail "expected SIGFPE"

let test_mapping_fresh_pages () =
  let env = { default with mapping = Harness.Environment.Fresh_pages } in
  let block = Parser.block_exn "mov (%rbx), %rax\nmov 0x2000(%rbx), %rcx" in
  match Harness.Mapping.run env block ~unroll:4 with
  | Ok m ->
    Alcotest.(check int) "two pages" 2 m.faults;
    Alcotest.(check int) "two frames" 2 m.distinct_frames
  | Error f -> Alcotest.failf "%s" (Harness.Mapping.failure_to_string f)

let test_unroll_naive () =
  let f = Harness.Unroll.choose (Harness.Environment.Naive 100) [] in
  Alcotest.(check int) "large" 100 f.large;
  Alcotest.(check int) "small" 0 f.small;
  Alcotest.(check (float 0.001)) "tp" 2.0
    (Harness.Unroll.throughput f ~cycles_large:200 ~cycles_small:0)

let test_unroll_two_point () =
  let f = Harness.Unroll.choose (Harness.Environment.Two_point { large = 64; small = 16 }) [] in
  Alcotest.(check (float 0.001)) "delta tp" 1.5
    (Harness.Unroll.throughput f ~cycles_large:172 ~cycles_small:100)

let test_unroll_adaptive () =
  let small_block = Parser.block_exn "add $1, %rax" in
  let f =
    Harness.Unroll.choose
      (Harness.Environment.Adaptive_two_point { code_budget_bytes = 24 * 1024 })
      small_block
  in
  Alcotest.(check int) "small block uses 100" 100 f.large;
  let big = Corpus.Paper_blocks.tensorflow_ablation in
  let f = Harness.Unroll.choose (Harness.Environment.Adaptive_two_point { code_budget_bytes = 24 * 1024 }) big in
  Alcotest.(check bool)
    (Printf.sprintf "large block scaled down (%d)" f.large)
    true
    (f.large < 100 && f.large * Encoder.block_length big <= 24 * 1024);
  Alcotest.(check bool) "small < large" true (f.small < f.large && f.small >= 1)

let test_misaligned_filter () =
  let block = Parser.block_exn "movups 60(%rbx), %xmm0" in
  (match Harness.Profiler.profile default Uarch.All.haswell block with
  | Ok p ->
    Alcotest.(check bool) "rejected" false p.accepted;
    Alcotest.(check bool) "reason misaligned" true
      (p.reject = Some Harness.Profiler.Misaligned_access)
  | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f));
  (* with the filter off the block is accepted *)
  let env = { default with drop_misaligned = false } in
  match Harness.Profiler.profile env Uarch.All.haswell block with
  | Ok p -> Alcotest.(check bool) "accepted without filter" true p.accepted
  | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)

let test_timings_protocol () =
  let block = Parser.block_exn "add $1, %rax" in
  match Harness.Profiler.profile default Uarch.All.haswell block with
  | Ok p ->
    Alcotest.(check bool) "most of the 16 timings clean" true
      (p.large.clean_timings >= default.min_clean
      && p.large.clean_timings <= default.timings);
    Alcotest.(check bool) "accepted cycles agreed" true (p.large.accepted_cycles <> None)
  | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)

let test_noisy_environment_rejects () =
  let block = Parser.block_exn "add $1, %rax" in
  let measure env =
    match Harness.Profiler.profile env Uarch.All.haswell block with
    | Ok p -> p
    | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)
  in
  (* with context switches on every run, no clean timing survives *)
  let p = measure { default with context_switch_rate = 1.0 } in
  Alcotest.(check bool) "rejected under noise" false p.accepted;
  Alcotest.(check int) "no clean timing" 0 p.large.clean_timings;
  Alcotest.(check bool) "never clean" true
    (p.reject = Some Harness.Profiler.Never_clean);
  (* clean timings exist, but [min_clean] exceeds the timings taken, so
     no cycle count gathers enough of them *)
  let p = measure { default with min_clean = default.timings + 1 } in
  Alcotest.(check bool) "rejected without agreement" false p.accepted;
  Alcotest.(check bool) "some clean timing" true (p.large.clean_timings > 0);
  Alcotest.(check bool) "unstable" true
    (p.reject = Some Harness.Profiler.Unstable)

let test_determinism () =
  let block = Corpus.Paper_blocks.gzip_crc in
  let tp () =
    match Harness.Profiler.profile default Uarch.All.haswell block with
    | Ok p -> p.throughput
    | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)
  in
  Alcotest.(check (float 0.0)) "deterministic" (tp ()) (tp ())

let test_reinitialization_identical_trace () =
  (* The monitor reinitialises state on every restart, so the trace of
     the final run must equal the trace of a run against a pre-mapped
     MMU. This is the core guarantee of Figure 2. *)
  let block = Corpus.Paper_blocks.gzip_crc in
  match Harness.Mapping.run default block ~unroll:8 with
  | Error f -> Alcotest.failf "%s" (Harness.Mapping.failure_to_string f)
  | Ok m1 -> (
    match Harness.Mapping.run default block ~unroll:8 with
    | Error f -> Alcotest.failf "%s" (Harness.Mapping.failure_to_string f)
    | Ok m2 ->
      let addrs (m : Harness.Mapping.success) =
        List.concat_map
          (fun (s : Reference.step) ->
            List.map (fun (a : Reference.access) -> a.vaddr) s.accesses)
          (Reference.steps_of_log m.steps)
      in
      Alcotest.(check (list int)) "identical traces" (addrs m1) (addrs m2))

(* Each measure point simulates one trace twice, the warm-up and the
   timed run, and counts both in [pipeline.blocks], so
   [perf.blocks_per_sec] keeps its meaning. *)
let test_blocks_per_point () =
  let blocks = Telemetry.Metrics.counter "pipeline.blocks" in
  List.iter
    (fun ((env : Harness.Environment.t), block) ->
      let f = Harness.Unroll.choose env.unroll block in
      let points = if f.small = 0 then 1 else 2 in
      let before = Telemetry.Metrics.value blocks in
      (match Harness.Profiler.profile env Uarch.All.haswell block with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f));
      Alcotest.(check int)
        (Printf.sprintf "%d points" points)
        (2 * points)
        (Telemetry.Metrics.value blocks - before))
    [
      (default, Corpus.Paper_blocks.gzip_crc);
      ({ default with unroll = Harness.Environment.Naive 100 }, Parser.block_exn "add $1, %rax");
    ]

let suite =
  [
    Alcotest.test_case "mapping crc block" `Quick test_mapping_crc;
    Alcotest.test_case "mapping no mem" `Quick test_mapping_no_mem;
    Alcotest.test_case "mapping disabled" `Quick test_mapping_disabled;
    Alcotest.test_case "mapping unmappable" `Quick test_mapping_unmappable;
    Alcotest.test_case "mapping fault budget" `Quick test_mapping_fault_budget;
    Alcotest.test_case "mapping sigfpe" `Quick test_mapping_sigfpe;
    Alcotest.test_case "mapping fresh pages" `Quick test_mapping_fresh_pages;
    Alcotest.test_case "unroll naive" `Quick test_unroll_naive;
    Alcotest.test_case "unroll two point" `Quick test_unroll_two_point;
    Alcotest.test_case "unroll adaptive" `Quick test_unroll_adaptive;
    Alcotest.test_case "misaligned filter" `Quick test_misaligned_filter;
    Alcotest.test_case "timings protocol" `Quick test_timings_protocol;
    Alcotest.test_case "noise rejects" `Quick test_noisy_environment_rejects;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "reinitialisation" `Quick test_reinitialization_identical_trace;
    Alcotest.test_case "two blocks per measure point" `Quick test_blocks_per_point;
  ]
