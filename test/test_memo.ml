(* The mapping memo's exactness contract: a packed step log unpacks to
   the same log; a profile whose mappings come from a memo filled by
   another uarch's profile equals a profile without a memo; and an
   engine's memo keeps a batch's mappings for exactly one following
   batch, shares them across uarches, and never across environments. *)

open X86

let uarches = [ Uarch.All.ivy_bridge; Uarch.All.haswell; Uarch.All.skylake ]

let print_block b = String.concat "; " (List.map Inst.to_string b)

let mapping_name = function
  | Harness.Environment.Fresh_pages -> "fresh pages"
  | Single_physical_page -> "single physical page"
  | No_mapping -> "no mapping"

(* Every field of two logs, step by step and access by access. *)
let logs_equal (a : Xsem.Step_log.t) (b : Xsem.Step_log.t) =
  let steps = a.steps and accesses = a.accesses in
  a.block = b.block
  && steps = b.steps
  && accesses = b.accesses
  && a.first.(steps) = b.first.(steps)
  && List.for_all
       (fun i -> a.events.(i) = b.events.(i) && a.first.(i) = b.first.(i))
       (List.init steps Fun.id)
  && List.for_all
       (fun k ->
         a.vaddr.(k) = b.vaddr.(k)
         && a.paddr.(k) = b.paddr.(k)
         && a.size.(k) = b.size.(k)
         && a.store.(k) = b.store.(k))
       (List.init accesses Fun.id)

(* A load and a store that cross a page boundary: the registers start
   at the fill value, so [disp] puts both at page offset 4092. *)
let page_crossing env =
  let lo = Int64.to_int (Harness.Environment.fill_value_u64 env) land 0xfff in
  let disp = (4092 - lo) land 0xfff in
  Parser.block_exn
    (Printf.sprintf "movq %d(%%rdi), %%rax\nmovq %%rbx, %d(%%rsi)" disp disp)

let splices env =
  ""
  :: [
       "xorl %edx, %edx\ndivl %ecx";
       "xorq %rdx, %rdx\ndivq %rcx";
       "psrld $12, %xmm0\naddss %xmm0, %xmm1";
     ]
  |> List.map Parser.block_exn
  |> List.cons (page_crossing env)

(* A corpus block of LLVM, gzip or OpenBLAS with one of [splices]
   spliced in at a random position. *)
let spliced_block_gen ~splices =
  QCheck.Gen.(
    let* seed = int_range 0 100000 in
    let* app = oneofl [ Corpus.Apps.llvm; Corpus.Apps.gzip; Corpus.Apps.openblas ] in
    let* splice = oneofl splices in
    let rng = Bstats.Rng.create (Int64.of_int seed) in
    let block = Corpus.Gen.block ~rng ~mix:app.mix ~min_len:1 ~max_len:6 in
    let+ at = int_range 0 (List.length block) in
    List.filteri (fun i _ -> i < at) block @ splice @ List.filteri (fun i _ -> i >= at) block)

(* Executor logs: final mapping runs under both mapping modes (Fresh
   pages maps every touched page to its own frame), with gradual
   underflow on or off, and the partial log of a run that faults on
   its first access with no page mapped. Each is packed behind a
   previous log at a non-zero position, and both unpack, into a new
   log and into each other's. *)
let pack_round_trip =
  let env0 = Harness.Environment.default in
  let gen =
    QCheck.Gen.(
      let* block = spliced_block_gen ~splices:(splices env0) in
      let* unroll = int_range 1 16 in
      let* mapping = oneofl Harness.Environment.[ Single_physical_page; Fresh_pages; No_mapping ] in
      let+ disable_underflow = bool in
      (block, unroll, mapping, disable_underflow))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"pack/unpack round-trip" ~count:100
       (QCheck.make
          ~print:(fun (b, unroll, mapping, ftz) ->
            Printf.sprintf "unroll %d, %s, ftz %b: %s" unroll (mapping_name mapping) ftz
              (print_block b))
          gen)
       (fun (block, unroll, mapping, disable_underflow) ->
         let env = { env0 with mapping; disable_underflow } in
         let log =
           match Harness.Mapping.run env block ~unroll with
           | Ok m -> m.steps
           | Error _ -> (
             let st = Xsem.Machine_state.create () in
             Xsem.Machine_state.init_constant st (Harness.Environment.fill_value_u64 env);
             match Xsem.Executor.run_unrolled st (Memsim.Mmu.create ()) block ~unroll with
             | Completed steps | Faulted { steps; _ } -> steps)
         in
         let first = Harness.Mapping.run env0 [ List.hd block ] ~unroll:1 in
         let before = match first with Ok m -> m.steps | Error _ -> log in
         let out = Buffer.create 256 in
         Buffer.add_string out "garbage";
         Xsem.Step_log.pack before out;
         let mid = Buffer.length out in
         Xsem.Step_log.pack log out;
         let buf =
           Bigarray.Array1.init Bigarray.int8_unsigned Bigarray.c_layout (Buffer.length out)
             (fun i -> Char.code (Buffer.nth out i))
         in
         let unpack ?(into = Xsem.Step_log.create ~steps:1) pos l =
           Xsem.Step_log.unpack buf ~pos l.Xsem.Step_log.block ~into;
           into
         in
         logs_equal before (unpack 7 before)
         && logs_equal log (unpack mid log)
         (* refilling a log, whichever of the two is longer *)
         && logs_equal log (unpack ~into:(unpack 7 before) mid log)
         && logs_equal before (unpack ~into:(unpack mid log) 7 before)))

(* Profile a block on [target] through a memo that a profile on
   [filler] filled: the result equals a profile without a memo, and the
   target profile's mappings all came from the memo. *)
let profile_through_memo =
  let gen =
    QCheck.Gen.(
      let* block = spliced_block_gen ~splices:[ [] ] in
      let* mapping = oneofl Harness.Environment.[ Single_physical_page; Fresh_pages ] in
      let* unroll =
        oneof
          [
            (let* large = int_range 2 24 in
             let+ small = int_range 1 (large - 1) in
             Harness.Environment.Two_point { large; small });
            map
              (fun kib -> Harness.Environment.Adaptive_two_point { code_budget_bytes = kib * 1024 })
              (int_range 1 24);
          ]
      in
      let* filler = oneofl uarches in
      let+ target = oneofl uarches in
      (block, mapping, unroll, filler, target))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"profile via another uarch's memo" ~count:40
       (QCheck.make
          ~print:(fun (b, mapping, unroll, (f : Uarch.Descriptor.t), (t : Uarch.Descriptor.t)) ->
            Printf.sprintf "%s, %s, %s -> %s: %s" (mapping_name mapping)
              (match unroll with
              | Harness.Environment.Two_point { large; small } ->
                Printf.sprintf "two-point %d/%d" large small
              | Adaptive_two_point { code_budget_bytes } ->
                Printf.sprintf "adaptive %d B" code_budget_bytes
              | Naive n -> Printf.sprintf "naive %d" n)
              f.short t.short (print_block b))
          gen)
       (fun (block, mapping, unroll, filler, target) ->
         let env = { Harness.Environment.default with mapping; unroll } in
         let memo = Harness.Mapping_memo.create () in
         let key = Engine.mapping_key env block in
         let filled = Harness.Profiler.profile ~memo:(memo, key) env filler block in
         let misses = (Harness.Mapping_memo.stats memo).misses in
         let through = Harness.Profiler.profile ~memo:(memo, key) env target block in
         let s = Harness.Mapping_memo.stats memo in
         filled = Harness.Profiler.profile env filler block
         && through = Harness.Profiler.profile env target block
         && s.misses = misses && s.hits = misses))

(* --- the engine's memo -------------------------------------------------- *)

let job env uarch block = { Engine.env; uarch; block }
let env = { Harness.Environment.default with unroll = Two_point { large = 8; small = 4 } }
let quiet_engine () = Engine.create ~jobs:1 ~faults:Faultsim.none ()

let memo_counts engine =
  let s = Engine.stats engine in
  (s.mapping_hits, s.mapping_misses)

(* One engine over the ivb, hsw and skl batches of a corpus gives the
   outcomes of a fresh engine per uarch, and its memo misses once per
   distinct (block, unroll) and hits on every other measure point. *)
let test_shared_engine_matches_fresh () =
  let blocks =
    Corpus.Suite.generate ~config:{ Corpus.Suite.default_config with scale = 4000 } ()
  in
  let batches =
    List.map
      (fun (u : Uarch.Descriptor.t) ->
        List.filter_map
          (fun (b : Corpus.Block.t) ->
            if (not u.supports_avx2) && Corpus.Block.uses_avx2 b then None
            else Some (job env u b.insts))
          blocks)
      uarches
  in
  let shared = Engine.create ~jobs:2 ~faults:Faultsim.none () in
  List.iter2
    (fun (u : Uarch.Descriptor.t) jobs ->
      let fresh = Engine.create ~jobs:2 ~faults:Faultsim.none () in
      let a = (Engine.run_batch shared jobs).outcomes
      and b = (Engine.run_batch fresh jobs).outcomes in
      Alcotest.(check bool) (u.short ^ ": outcomes equal") true (a = b);
      Alcotest.(check int) (u.short ^ ": fresh engine never hits") 0 (fst (memo_counts fresh)))
    uarches batches;
  (* measure points: the large one, and the small one after a mapped
     large one *)
  let points (j : Engine.job) =
    match Harness.Mapping.run j.env j.block ~unroll:8 with
    | Ok _ -> 2
    | Error _ -> 1
  in
  (* a batch profiles each distinct job once *)
  let profiled = Hashtbl.create 256 and distinct = Hashtbl.create 256 in
  List.iter
    (List.iter (fun (j : Engine.job) ->
         let block = Encoder.encode_block j.block in
         let p = points j in
         Hashtbl.replace profiled (j.uarch.short, block) p;
         Hashtbl.replace distinct block p))
    batches;
  let sum tbl = Hashtbl.fold (fun _ p acc -> acc + p) tbl 0 in
  let total = sum profiled and distinct_points = sum distinct in
  let hits, misses = memo_counts shared in
  Alcotest.(check int) "one miss per distinct key" distinct_points misses;
  Alcotest.(check int) "a hit for every other point" (total - distinct_points) hits

(* Each batch that runs the profiler opens a generation: an entry made
   or used in one such batch is found by the next, which carries it
   forward, and is gone if that next batch does not use it. A batch
   that profiles nothing opens no generation. *)
let test_entry_survives_one_batch () =
  let engine = quiet_engine () in
  let a = Corpus.Paper_blocks.gzip_crc in
  let other = Parser.block_exn "addq %rax, %rbx" in
  (* more uarch names, so that [a] is profiled more than three times *)
  let copy (d : Uarch.Descriptor.t) = { d with short = d.short ^ "-copy" } in
  let batch what expected jobs =
    let h0, m0 = memo_counts engine in
    ignore (Engine.run_batch engine jobs);
    let h1, m1 = memo_counts engine in
    Alcotest.(check (pair int int)) what expected (h1 - h0, m1 - m0)
  in
  let open Uarch.All in
  batch "the first batch maps" (0, 2) [ job env haswell a ];
  batch "the next batch finds it" (2, 0) [ job env skylake a ];
  batch "carried forward, the next batch again" (2, 0) [ job env ivy_bridge a ];
  batch "an engine-cache hit profiles nothing" (0, 0) [ job env ivy_bridge a ];
  batch "so the entry is still found" (2, 0) [ job env (copy haswell) a ];
  batch "an unrelated batch" (0, 2) [ job env haswell other ];
  batch "after it the entry is gone" (0, 2) [ job env (copy skylake) a ]

(* Environments that differ in any one field never share an entry, the
   unroll strategy included even where both measure the same factor.
   The second batch profiles the variant first, then the original
   environment on another uarch: only the latter finds the first
   batch's two entries. *)
let test_environments_never_share () =
  let block = Corpus.Paper_blocks.gzip_crc in
  let variants =
    [
      ("mapping", { env with mapping = Fresh_pages });
      ("unroll", { env with unroll = Naive 8 });
      ("fill_value", { env with fill_value = 0x7654321l });
      ("max_faults", { env with max_faults = env.max_faults + 1 });
      ("timings", { env with timings = env.timings + 1 });
      ("min_clean", { env with min_clean = env.min_clean - 1 });
      ("disable_underflow", { env with disable_underflow = not env.disable_underflow });
      ("drop_misaligned", { env with drop_misaligned = not env.drop_misaligned });
      ("context_switch_rate", { env with context_switch_rate = env.context_switch_rate +. 0.01 });
      ("noise_seed", { env with noise_seed = Int64.add env.noise_seed 1L });
    ]
  in
  List.iter
    (fun (field, variant) ->
      Alcotest.(check bool) (field ^ ": keys differ") false
        (Engine.mapping_key env block = Engine.mapping_key variant block);
      let engine = quiet_engine () in
      ignore (Engine.run_batch engine [ job env Uarch.All.haswell block ]);
      ignore
        (Engine.run_batch engine
           [ job variant Uarch.All.skylake block; job env Uarch.All.skylake block ]);
      Alcotest.(check int) (field ^ ": only the same environment hits") 2
        (fst (memo_counts engine)))
    variants

let suite =
  [
    pack_round_trip;
    profile_through_memo;
    Alcotest.test_case "shared engine == engine per uarch" `Quick
      test_shared_engine_matches_fresh;
    Alcotest.test_case "entry survives one batch" `Quick test_entry_survives_one_batch;
    Alcotest.test_case "environments never share" `Quick test_environments_never_share;
  ]
