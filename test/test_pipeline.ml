(* End-to-end throughput checks of the ground-truth pipeline simulator
   against well-understood microbenchmark values. *)

let throughput ?(uarch = Uarch.All.haswell) text =
  let block = X86.Parser.block_exn text in
  match Harness.Profiler.profile Harness.Environment.default uarch block with
  | Ok p -> p.throughput
  | Error f -> Alcotest.failf "profile failed: %s" (Harness.Profiler.failure_to_string f)

let check_tp ?uarch name expected tolerance text =
  let tp = throughput ?uarch text in
  if Float.abs (tp -. expected) > tolerance then
    Alcotest.failf "%s: throughput %.2f, expected %.2f +/- %.2f" name tp expected
      tolerance

let test_dependent_chain () =
  check_tp "add chain" 1.0 0.05 "add $1, %rdi"

let test_independent_alu () =
  (* 6 independent adds on 4 ALU ports: 1.5 cycles/iteration *)
  check_tp "alu ports" 1.5 0.1
    "add $1, %rdi\nadd $1, %rsi\nadd $1, %rdx\nadd $1, %rcx\nadd $1, %r8\nadd $1, %r9"

let test_zero_idiom_rename () =
  (* eliminated at rename: bounded by the 4-wide front end *)
  check_tp "vxorps" 0.25 0.05 "vxorps %xmm2, %xmm2, %xmm2"

let test_mul_latency_chain () =
  (* loop-carried multiply chain: latency 3 *)
  check_tp "imul chain" 3.0 0.1 "imul %rbx, %rax"

let test_mul_throughput () =
  (* two independent multiplies per iteration on the single multiply
     port: 2 cycles/iteration *)
  check_tp "imul tp" 2.0 0.2 "imul $3, %rbx, %rax\nimul $3, %rbx, %rcx"

let test_fp_chain_vs_parallel () =
  (* SSE mulps accumulates into its destination, so it is loop-carried *)
  check_tp "mulps chain (latency 5)" 5.0 0.1 "mulps %xmm1, %xmm0";
  (* the AVX form writes a fresh destination: no loop carry, two
     multiplies per iteration on two ports *)
  check_tp "vmulps parallel" 1.0 0.2
    "vmulps %xmm4, %xmm5, %xmm0\nvmulps %xmm6, %xmm7, %xmm1"

let test_skylake_fp_latency () =
  check_tp ~uarch:Uarch.All.skylake "skl mulps chain (latency 4)" 4.0 0.1
    "mulps %xmm1, %xmm0"

let test_load_ports () =
  (* 3 independent loads on 2 load ports *)
  check_tp "load ports" 1.5 0.1
    "mov (%rbx), %rax\nmov 8(%rbx), %rcx\nmov 16(%rbx), %rdx"

let test_store_port () =
  (* 2 stores on 1 store-data port *)
  check_tp "store port" 2.0 0.1
    "movq %rax, (%rbx)\nmovq %rcx, 8(%rbx)"

let test_div_not_pipelined () =
  check_tp "div blocks divider" 23.0 2.0 "xor %edx, %edx\ndivl %ecx\ntestl %edx, %edx"

let test_div_width_difference () =
  let t32 = throughput "xor %edx, %edx\ndivl %ecx" in
  let tp =
    let block = X86.Parser.block_exn "xorq %rdx, %rdx\ndivq %rcx" in
    match Harness.Profiler.profile Harness.Environment.default Uarch.All.haswell block with
    | Ok p -> p.throughput
    | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)
  in
  Alcotest.(check bool)
    (Printf.sprintf "64-bit (%.1f) slower than 32-bit (%.1f)" tp t32)
    true (tp > t32)

let test_store_load_forwarding () =
  (* loop-carried chain through memory: store then reload same slot *)
  let tp = throughput "movq %rax, 16(%rsp)\nmovq 16(%rsp), %rax\nadd $1, %rax" in
  Alcotest.(check bool) (Printf.sprintf "forwarding chain > 5 (%.2f)" tp) true (tp > 5.0)

let test_gzip_crc_block () =
  (* the paper's case-study block: measured 8.25 on real Haswell *)
  let tp = throughput (Corpus.Block.text Corpus.Paper_blocks.gzip_crc_block) in
  Alcotest.(check bool) (Printf.sprintf "crc in [6,10] (%.2f)" tp) true
    (tp >= 6.0 && tp <= 10.0)

let test_counters_clean () =
  let block = X86.Parser.block_exn "add $1, %rax\nmov (%rbx), %rcx" in
  match Harness.Profiler.profile Harness.Environment.default Uarch.All.haswell block with
  | Ok p ->
    Alcotest.(check bool) "clean" true (Pipeline.Counters.is_clean p.large.counters);
    Alcotest.(check bool) "instructions counted" true
      (p.large.counters.instructions > 0);
    Alcotest.(check bool) "uops >= instructions" true
      (p.large.counters.uops >= p.large.counters.instructions)
  | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)

let test_icache_miss_large_code () =
  (* naive unroll of a large block overflows the 32 KiB L1I *)
  let env = { Harness.Environment.default with unroll = Harness.Environment.Naive 100 } in
  match
    Harness.Profiler.profile env Uarch.All.haswell Corpus.Paper_blocks.tensorflow_ablation
  with
  | Ok p ->
    Alcotest.(check bool) "l1i misses present" true (p.large.counters.l1i_misses > 0);
    Alcotest.(check bool) "rejected as never clean" false p.accepted
  | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)

let test_subnormal_assist_cycles () =
  let env =
    { Harness.Environment.default with disable_underflow = false; drop_misaligned = false }
  in
  let with_ftz =
    match Harness.Profiler.profile Harness.Environment.default Uarch.All.haswell
            Corpus.Paper_blocks.tensorflow_ablation with
    | Ok p -> p.throughput
    | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)
  in
  match Harness.Profiler.profile env Uarch.All.haswell Corpus.Paper_blocks.tensorflow_ablation with
  | Ok p ->
    Alcotest.(check bool)
      (Printf.sprintf "assists slow down 5x+ (%.0f vs %.0f)" p.throughput with_ftz)
      true
      (p.throughput > 5.0 *. with_ftz)
  | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)

let test_schedule_recording () =
  let block = X86.Parser.block_exn "add $1, %rax\nmov (%rbx), %rcx" in
  match Harness.Mapping.run Harness.Environment.default block ~unroll:4 with
  | Error f -> Alcotest.failf "%s" (Harness.Mapping.failure_to_string f)
  | Ok mapped ->
    let machine = Pipeline.Machine.create Uarch.All.haswell in
    let r = Sim.run ~record_schedule:true machine mapped.steps in
    Alcotest.(check bool) "schedule non-empty" true (r.schedule <> []);
    List.iter
      (fun (e : Pipeline.Core.schedule_entry) ->
        if e.port >= 0 then
          Alcotest.(check bool) "complete after dispatch" true (e.complete >= e.dispatch))
      r.schedule

let suite =
  [
    Alcotest.test_case "dependent chain" `Quick test_dependent_chain;
    Alcotest.test_case "independent alu" `Quick test_independent_alu;
    Alcotest.test_case "zero idiom rename" `Quick test_zero_idiom_rename;
    Alcotest.test_case "mul latency chain" `Quick test_mul_latency_chain;
    Alcotest.test_case "mul throughput" `Quick test_mul_throughput;
    Alcotest.test_case "fp chain vs parallel" `Quick test_fp_chain_vs_parallel;
    Alcotest.test_case "skylake fp latency" `Quick test_skylake_fp_latency;
    Alcotest.test_case "load ports" `Quick test_load_ports;
    Alcotest.test_case "store port" `Quick test_store_port;
    Alcotest.test_case "div not pipelined" `Quick test_div_not_pipelined;
    Alcotest.test_case "div width difference" `Quick test_div_width_difference;
    Alcotest.test_case "store-load forwarding" `Quick test_store_load_forwarding;
    Alcotest.test_case "gzip crc block" `Quick test_gzip_crc_block;
    Alcotest.test_case "counters clean" `Quick test_counters_clean;
    Alcotest.test_case "icache miss large code" `Quick test_icache_miss_large_code;
    Alcotest.test_case "subnormal assists" `Quick test_subnormal_assist_cycles;
    Alcotest.test_case "schedule recording" `Quick test_schedule_recording;
  ]
