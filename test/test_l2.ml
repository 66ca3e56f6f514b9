(* The unified L2 level: capacity between L1 and memory, and its effect
   on measured throughput in the fresh-pages ablation mode. *)

let test_l2_capacity_between_levels () =
  let machine = Pipeline.Machine.create Uarch.All.haswell in
  (* a footprint larger than L1 (32 KiB) but well inside L2 (256 KiB)
     must miss L1 every pass but hit L2 after the first pass *)
  let st = Xsem.Machine_state.create () in
  let mmu = Memsim.Mmu.create () in
  for vpn = 0 to 31 do
    ignore (Memsim.Mmu.map_fresh mmu (Int64.of_int (0x100 + vpn)))
  done;
  Xsem.Machine_state.set_reg st X86.Reg.rbx 0x100000L;
  let block = X86.Parser.block_exn "movq (%rbx), %rax\nadd $4096, %rbx" in
  let run () =
    let st = Xsem.Machine_state.copy st in
    match Xsem.Executor.run_unrolled st mmu block ~unroll:32 with
    | Xsem.Executor.Completed log -> Sim.run machine log
    | Faulted _ -> Alcotest.fail "fault"
  in
  let cold = run () in
  Alcotest.(check bool) "cold run misses L2 too" true (cold.counters.l2_misses > 0);
  let warm = run () in
  (* 32 lines in 32 distinct pages: they fit L2 but thrash... they fit
     both set-wise; L1 has 64 sets so 32 lines all map to set 0 (4 KiB
     stride) and only 8 ways survive; L2 (512 sets) keeps them all *)
  Alcotest.(check bool) "warm run still misses L1" true
    (warm.counters.l1d_read_misses > 0);
  Alcotest.(check int) "warm run hits L2" 0 warm.counters.l2_misses;
  Alcotest.(check bool) "warm faster than cold" true (warm.cycles <= cold.cycles)

let test_l2_miss_penalty_visible () =
  (* same trace, hand-driven through Core with a tiny L2 vs a huge L2 *)
  let d = Uarch.All.haswell in
  let mmu = Memsim.Mmu.create () in
  for vpn = 0 to 31 do
    ignore (Memsim.Mmu.map_fresh mmu (Int64.of_int (0x100 + vpn)))
  done;
  let st = Xsem.Machine_state.create () in
  Xsem.Machine_state.set_reg st X86.Reg.rbx 0x100000L;
  let block = X86.Parser.block_exn "movq (%rbx), %rax\nadd $4096, %rbx" in
  let steps =
    match Xsem.Executor.run_unrolled st mmu block ~unroll:32 with
    | Xsem.Executor.Completed log -> log
    | Faulted _ -> Alcotest.fail "fault"
  in
  let trace = Pipeline.Trace.of_steps d steps in
  let cycles_with ~l2_size =
    let l1d = Memsim.Cache.l1_default () and l1i = Memsim.Cache.l1_default () in
    let l2 = Memsim.Cache.create ~size_bytes:l2_size ~ways:8 ~line_bytes:64 in
    (* warm pass fills the hierarchy; the second pass exposes whether the
       lines survived in the L2 (the 4 KiB stride thrashes L1 set 0) *)
    ignore (Pipeline.Core.simulate d ~l1d ~l1i ~l2 trace);
    (Pipeline.Core.simulate d ~l1d ~l1i ~l2 trace).cycles
  in
  let small = cycles_with ~l2_size:4096 in
  let big = cycles_with ~l2_size:(1024 * 1024) in
  Alcotest.(check bool)
    (Printf.sprintf "small L2 slower (%d vs %d)" small big)
    true (small > big)

let test_single_page_never_touches_l2 () =
  (* the BHive invariant extended one level: with single-physical-page
     mapping the working set is 64 lines, so after warm-up there are no
     L1 misses and therefore no L2 traffic at all *)
  let block = Corpus.Paper_blocks.gzip_crc in
  match Harness.Profiler.profile Harness.Environment.default Uarch.All.haswell block with
  | Ok p ->
    Alcotest.(check int) "no l2 misses" 0 p.large.counters.l2_misses;
    Alcotest.(check bool) "accepted" true p.accepted
  | Error f -> Alcotest.failf "%s" (Harness.Profiler.failure_to_string f)

let suite =
  [
    Alcotest.test_case "capacity between levels" `Quick test_l2_capacity_between_levels;
    Alcotest.test_case "miss penalty visible" `Quick test_l2_miss_penalty_visible;
    Alcotest.test_case "single page bypasses L2" `Quick test_single_page_never_touches_l2;
  ]
