(* The batched fast path's identity contract: a reused machine
   (simulate_batch — flushed caches, epoch-reset scratch, hoisted
   forwarding table) must produce results indistinguishable from a
   brand-new machine per block, and the flat execution tables it runs
   on must decompose every instruction exactly like the reference
   profile path. The flat-table digests are pinned so an encoding or
   preprocessing change cannot slip through unnoticed. *)

open X86

let uarches =
  [ Uarch.All.ivy_bridge; Uarch.All.haswell; Uarch.All.skylake ]

(* full structural equality over the counter record, port arrays
   included — exactly what "byte-identical results" means per block *)
let counters_equal (a : Pipeline.Counters.t) (b : Pipeline.Counters.t) =
  a.core_cycles = b.core_cycles
  && a.instructions = b.instructions
  && a.uops = b.uops
  && a.l1d_read_misses = b.l1d_read_misses
  && a.l1d_write_misses = b.l1d_write_misses
  && a.l1i_misses = b.l1i_misses
  && a.l2_misses = b.l2_misses
  && a.misaligned_mem_refs = b.misaligned_mem_refs
  && a.subnormal_assists = b.subnormal_assists
  && a.port_cycles = b.port_cycles
  && a.frontend_stall_cycles = b.frontend_stall_cycles
  && a.rob_stall_cycles = b.rob_stall_cycles
  && a.port_contention_cycles = b.port_contention_cycles

(* Scalar (LLVM) or vector (OpenBLAS) blocks. OpenBLAS brings 256-bit
   loads and stores, which Ivy Bridge splits into two uops with one
   recorded access between them, so the second uop reads the default
   of 8 bytes at address 0. *)
let block_gen =
  QCheck.Gen.(
    let* seed = int_range 0 100000 in
    let* app = oneofl [ Corpus.Apps.llvm; Corpus.Apps.openblas ] in
    let rng = Bstats.Rng.create (Int64.of_int seed) in
    return (Corpus.Gen.block ~rng ~mix:app.mix ~min_len:1 ~max_len:6))

let print_block b = String.concat "; " (List.map Inst.to_string b)

(* simulate_batch over a reused machine == a fresh Machine per block,
   for every uarch — cycles, counters, and schedule all equal. The
   block is simulated twice in one batch so any state leaking from a
   previous block through the reused scratch/caches would surface in
   the second result. *)
let batch_matches_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"simulate_batch == fresh machine" ~count:40
       (QCheck.make ~print:print_block block_gen)
       (fun block ->
         match Harness.Mapping.run Harness.Environment.default block ~unroll:4 with
         | Error _ -> true (* unmappable blocks are out of scope here *)
         | Ok mapped ->
           List.for_all
             (fun d ->
               let fresh =
                 Sim.run ~record_schedule:true
                   (Pipeline.Machine.create d) mapped.steps
               in
               match
                 Sim.simulate_batch ~record_schedule:true d
                   [ mapped.steps; mapped.steps ]
               with
               | [ first; second ] ->
                 List.for_all
                   (fun (r : Pipeline.Core.result) ->
                     r.cycles = fresh.cycles
                     && counters_equal r.counters fresh.counters
                     && r.schedule = fresh.schedule)
                   [ first; second ]
               | _ -> false)
             uarches))

(* the flat preprocessed tables must reproduce the reference
   decomposition for every opcode's register form, on every uarch:
   same uops (kind, ports, latency, in order), same fused-slot count,
   same elimination verdict *)
let test_flat_decompose_matches_profile () =
  List.iter
    (fun (d : Uarch.Descriptor.t) ->
      List.iter
        (fun op ->
          let inst =
            match op with
            | Opcode.Nop | Cdq | Cqo | Ret | Vzeroupper -> Inst.make op []
            | _ when Opcode.is_vector op ->
              Inst.make op [ Operand.Reg (Reg.Xmm 0); Operand.Reg (Reg.Xmm 1) ]
            | _ -> Inst.make op [ Operand.Reg Reg.rax; Operand.Reg Reg.rbx ]
          in
          match Inst.validate inst with
          | Error _ -> ()
          | Ok () ->
            let reference = Uarch.Profile.decompose d.profile inst in
            let flat = Uarch.Descriptor.decompose d inst in
            let label fmt =
              Printf.sprintf "%s/%s: %s" d.short (Opcode.mnemonic op) fmt
            in
            Alcotest.(check bool)
              (label "eliminated") reference.eliminated flat.eliminated;
            Alcotest.(check int)
              (label "fused_slots") reference.fused_slots flat.fused_slots;
            Alcotest.(check int)
              (label "uop count")
              (List.length reference.uops)
              (List.length flat.uops);
            List.iter2
              (fun (r : Uarch.Uop.t) (f : Uarch.Uop.t) ->
                Alcotest.(check bool) (label "uop kind") true (r.kind = f.kind);
                Alcotest.(check bool)
                  (label "uop ports") true
                  (Uarch.Port.to_list r.ports = Uarch.Port.to_list f.ports);
                Alcotest.(check int) (label "uop latency") r.latency f.latency)
              reference.uops flat.uops)
        Opcode.all)
    uarches

(* golden digests of the flat tables' canonical encoding. These pin
   the preprocessing end-to-end (class indexing, packed port masks,
   latencies, variant flags): any change to what the fast path
   executes from must show up here and be justified in the commit.
   Regenerate with [Engine.flat_digest] if the uarch tables
   legitimately change — and expect [Engine.generation] (pinned in
   test_store.ml) to move with them. *)
let test_flat_digest_golden () =
  Alcotest.(check string) "golden flat tables (ivb)"
    "be63a20310f649e6adaf7dcb4fdf34fe13bca3b2f565fc210df44c6f855b65ae"
    (Engine.flat_digest Uarch.All.ivy_bridge);
  Alcotest.(check string) "golden flat tables (hsw)"
    "2006fd4b940b84b13ca80e508938caa59aaaba49fd64f0b9b657c1fd75dd1623"
    (Engine.flat_digest Uarch.All.haswell);
  Alcotest.(check string) "golden flat tables (skl)"
    "51f8e07ecbc35935caef674e12f013f2d6810ca01451e58ad496beacd81d457d"
    (Engine.flat_digest Uarch.All.skylake);
  (* the digest must keep the uarches apart — a degenerate encoding
     that hashed only the layout would not *)
  Alcotest.(check bool) "digests distinct" false
    (Engine.flat_digest Uarch.All.haswell = Engine.flat_digest Uarch.All.skylake);
  (* flat preprocessing must not perturb the store invalidation key:
     the generation fingerprint is pinned independently in
     test_store.ml and re-checked here against the same goldens *)
  Alcotest.(check string) "generation unchanged by flat tables (hsw)"
    "0e4f0a9588c1b077ef04db6085e3a8f2363fca89e95c071392edbc6920035e0d"
    (Engine.generation Uarch.All.haswell);
  Alcotest.(check string) "generation unchanged by flat tables (skl)"
    "cef5f774d7008fc937c5dfb85825e9f5cc4754ce8c715881da2c59071c3f2c46"
    (Engine.generation Uarch.All.skylake)

(* deterministic spot check on a block exercising every uop kind
   (load, store, exec, divider) plus a second batch entry, comparing
   against fresh machines — the qcheck property's fixed companion *)
let test_batch_mixed_block () =
  let block =
    Parser.block_exn
      "mov $7, %rcx\n\
       xor %rdx, %rdx\n\
       mov (%rbx), %rax\n\
       add $3, %rax\n\
       divq %rcx\n\
       mov %rax, 8(%rbx)"
  in
  match Harness.Mapping.run Harness.Environment.default block ~unroll:4 with
  | Error f -> Alcotest.failf "%s" (Harness.Mapping.failure_to_string f)
  | Ok mapped ->
    List.iter
      (fun (d : Uarch.Descriptor.t) ->
        let fresh =
          Sim.run (Pipeline.Machine.create d) mapped.steps
        in
        List.iter
          (fun (r : Pipeline.Core.result) ->
            Alcotest.(check int) (d.short ^ " cycles") fresh.cycles r.cycles;
            Alcotest.(check bool) (d.short ^ " counters") true
              (counters_equal fresh.counters r.counters))
          (Sim.simulate_batch d [ mapped.steps; mapped.steps ]))
      uarches

(* One trace simulated twice on a machine == two [Sim.run]s of its
   steps on a fresh one: the profiler's warm-up and timed run share a
   trace, so simulating it must leave it reusable and each run must see
   exactly the cache state a rebuilt trace would. *)
let trace_reuse_matches_run =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"one trace twice == two runs" ~count:25
       (QCheck.make ~print:print_block block_gen)
       (fun block ->
         match Harness.Mapping.run Harness.Environment.default block ~unroll:4 with
         | Error _ -> true
         | Ok mapped ->
           List.for_all
             (fun d ->
               let m = Pipeline.Machine.create d in
               let trace = Pipeline.Machine.trace m mapped.steps in
               let shared = List.init 2 (fun _ -> Pipeline.Machine.simulate m trace) in
               let m = Pipeline.Machine.create d in
               let runs = List.init 2 (fun _ -> Sim.run m mapped.steps) in
               List.for_all2
                 (fun (a : Pipeline.Core.result) (b : Pipeline.Core.result) ->
                   a.cycles = b.cycles && counters_equal a.counters b.counters)
                 shared runs)
             uarches))

(* The L1 residency verdict ([Machine.fits_l1]) is exact. When it
   holds, the full path ([Machine.measure ~fits_l1:false]: reset, then a
   discarded warm-up simulation and a cached one) misses nothing in L1I,
   L1D or L2, and the resident path ([Machine.measure ~fits_l1:true],
   which neither warms up nor looks up) equals it in cycles and every
   counter. On either verdict,
   [Profiler.profile] equals the full path in every counter, cycles
   included. Generated blocks run on ivb, hsw and skl, under both
   mapping modes, at unroll 1-16; some have a page-strided access
   spliced in, which under Fresh_pages puts each iteration's access in
   a new frame but in the same L1 set, so that both verdicts occur. The
   test fails unless its generated cases saw both.

   Three fixed cases have a false verdict, each for a different part of
   the superset the verdict walks, and are checked on all three uarches:
   - nine strided loads under Fresh_pages: nine lines in one L1D set,
     so the timed run misses L1D on every load;
   - 6,000 copies of a 7-byte instruction: 657 code lines where L1I
     holds 512, so the timed run misses L1I on every line;
   - eight strided 256-bit loads in L1D set 0 under Fresh_pages: Ivy
     Bridge splits each into two load uops with one recorded access, so
     its second uop reads the line at address 0, a ninth line in set 0,
     and the timed run misses on every load there; Haswell and Skylake
     touch eight lines and miss nothing. *)
let test_verdict_exact () =
  let fill_offset =
    Int64.to_int (Harness.Environment.fill_value_u64 Harness.Environment.default) land 0xfff
  in
  (* the displacement that puts a fill-valued base at page offset 0 *)
  let set0 = -fill_offset land 0xfff in
  let stride = Parser.block_exn "movq (%rbx), %rax\naddq $4096, %rbx" in
  let ymm_stride =
    Parser.block_exn (Printf.sprintf "vmovups %d(%%rbx), %%ymm0\naddq $4096, %%rbx" set0)
  in
  (* On [d]: the verdict, the full path's L1I, L1D and L2 misses, and
     whether the resident path and the profile agree with it. *)
  let run env block ~unroll (d : Uarch.Descriptor.t) =
    match Harness.Mapping.run env block ~unroll with
    | Error _ -> None
    | Ok mapped ->
      let fits = Pipeline.Machine.fits_l1 mapped.steps in
      let m = Pipeline.Machine.create d in
      let trace = Pipeline.Machine.trace m mapped.steps in
      let full = Pipeline.Machine.measure m ~fits_l1:false trace in
      let resident = Pipeline.Machine.measure m ~fits_l1:true trace in
      let c = full.counters in
      let misses = (c.l1i_misses, c.l1d_read_misses + c.l1d_write_misses, c.l2_misses) in
      let profiled =
        match
          Harness.Profiler.profile
            { env with unroll = Harness.Environment.Naive unroll }
            d block
        with
        | Ok p -> counters_equal p.large.counters c
        | Error _ -> false
      in
      let exact =
        (not fits)
        || (misses = (0, 0, 0) && resident.cycles = full.cycles
           && counters_equal resident.counters c)
      in
      Some (fits, misses, profiled && exact)
  in
  let seen = Array.make 2 0 in
  let gen =
    QCheck.Gen.(
      let* block = block_gen in
      let* splice = oneofl [ []; stride; ymm_stride ] in
      let* at = int_range 0 (List.length block) in
      let* unroll = int_range 1 16 in
      let+ mapping = oneofl Harness.Environment.[ Single_physical_page; Fresh_pages ] in
      ( List.filteri (fun i _ -> i < at) block @ splice @ List.filteri (fun i _ -> i >= at) block,
        unroll,
        mapping ))
  in
  let prop (block, unroll, mapping) =
    let env = { Harness.Environment.default with mapping } in
    List.for_all
      (fun d ->
        match run env block ~unroll d with
        | None -> true
        | Some (fits, _, ok) ->
          if d == Uarch.All.haswell then
            seen.(Bool.to_int fits) <- seen.(Bool.to_int fits) + 1;
          ok)
      uarches
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"L1 residency verdict is exact" ~count:100
       (QCheck.make
          ~print:(fun (b, unroll, mapping) ->
            Printf.sprintf "unroll %d, %s: %s" unroll
              (match mapping with
              | Harness.Environment.Fresh_pages -> "fresh pages"
              | _ -> "single physical page")
              (print_block b))
          gen)
       prop);
  Alcotest.(check bool)
    (Printf.sprintf "generated cases saw both verdicts (%d fit, %d do not)" seen.(1) seen.(0))
    true
    (seen.(0) > 0 && seen.(1) > 0);
  let fresh = { Harness.Environment.default with mapping = Fresh_pages } in
  List.iter
    (fun (name, env, block, unroll, expected) ->
      List.iter
        (fun (d : Uarch.Descriptor.t) ->
          match run env block ~unroll d with
          | None -> Alcotest.failf "%s: does not map" name
          | Some (fits, misses, ok) ->
            let label what = Printf.sprintf "%s on %s: %s" name d.short what in
            Alcotest.(check bool) (label "verdict") false fits;
            Alcotest.(check (triple int int int))
              (label "L1I, L1D and L2 misses") (expected d) misses;
            Alcotest.(check bool) (label "profile == full path") true ok)
        uarches)
    [
      ("strided loads", fresh, stride, 9, fun _ -> (0, 9, 0));
      ( "42 KiB of code",
        Harness.Environment.default,
        Parser.block_exn "addq $0x11223344, %rax",
        6000,
        fun _ -> (657, 0, 0) );
      ( "strided 256-bit loads in set 0",
        fresh,
        ymm_stride,
        8,
        fun d -> if d == Uarch.All.ivy_bridge then (0, 8, 0) else (0, 0, 0) );
    ]

(* The trace == the list-based trace builder kept as a reference
   ({!Reference.of_steps}, fed the log's steps as records): the same
   number of steps and, for every step, the same static info and code
   address, and what the core reads of the log: the loads and stores
   ((paddr, size, vaddr) in order, then 8 bytes at address 0 for a uop
   past the last one), the subnormal flag and the divide latency. Over
   LLVM, gzip and OpenBLAS blocks, all three uarches and both mapping
   modes. Spliced-in instructions
   exercise each divide latency (a nonzero high half below the divisor
   takes the slow path without faulting) and, with gradual underflow
   on, the subnormal flag: [psrld] turns the fill pattern into a
   subnormal float. *)
let trace_matches_reference =
  let splices =
    List.map Parser.block_exn
      [
        "";
        "xorl %edx, %edx\ndivl %ecx";
        "xorq %rdx, %rdx\ndivq %rcx";
        "divq %rcx";
        "movq $1, %rdx\nmovq $7, %rcx\ndivq %rcx";
        "movl $1, %edx\nmovl $7, %ecx\ndivl %ecx";
        "psrld $12, %xmm0\naddss %xmm0, %xmm1";
      ]
  in
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 100000 in
      let* app = oneofl [ Corpus.Apps.llvm; Corpus.Apps.gzip; Corpus.Apps.openblas ] in
      let* splice = oneofl splices in
      let* unroll = int_range 1 16 in
      let* mapping =
        oneofl Harness.Environment.[ Single_physical_page; Fresh_pages ]
      in
      let* disable_underflow = bool in
      let rng = Bstats.Rng.create (Int64.of_int seed) in
      let block = Corpus.Gen.block ~rng ~mix:app.mix ~min_len:1 ~max_len:6 in
      let+ at = int_range 0 (List.length block) in
      let before = List.filteri (fun i _ -> i < at) block
      and after = List.filteri (fun i _ -> i >= at) block in
      (before @ splice @ after, unroll, mapping, disable_underflow))
  in
  (* Step [i]'s loads or stores as the core takes them, one per uop,
     and what a uop past the last one reads: through the readers that
     [Core.simulate] calls. *)
  let accesses (t : Pipeline.Trace.t) ~store i =
    let open Pipeline.Core in
    let limit = first_access t.log (i + 1) in
    let rec go a acc =
      let j = next_access t.log ~store a limit in
      let read = (paddr t.log j, size t.log j, vaddr t.log j) in
      if j < 0 then (Array.of_list (List.rev acc), read) else go (j + 1) (read :: acc)
    in
    go (first_access t.log i) []
  in
  let with_vaddrs pairs vaddrs =
    (Array.mapi (fun k (p, s) -> (p, s, vaddrs.(k))) pairs, (0, 8, 0))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"flat trace == list-based reference" ~count:60
       (QCheck.make
          ~print:(fun (b, unroll, mapping, disable_underflow) ->
            Printf.sprintf "unroll %d, %s, ftz %b: %s" unroll
              (match mapping with
              | Harness.Environment.Fresh_pages -> "fresh pages"
              | _ -> "single physical page")
              disable_underflow (print_block b))
          gen)
       (fun (block, unroll, mapping, disable_underflow) ->
         let env = { Harness.Environment.default with mapping; disable_underflow } in
         match Harness.Mapping.run env block ~unroll with
         | Error _ -> true
         | Ok mapped ->
           let steps = Reference.steps_of_log mapped.steps in
           List.for_all
             (fun d ->
               let t = Pipeline.Trace.of_steps d mapped.steps in
               let reference = Reference.of_steps d steps in
               t.steps = List.length reference
               && List.for_all Fun.id
                    (List.mapi
                       (fun i (r : Reference.dyn_inst) ->
                         r.static_index = i
                         && Pipeline.Trace.static t i = r.static
                         && Pipeline.Trace.code_addr t i = r.code_addr
                         && accesses t ~store:false i = with_vaddrs r.loads r.load_vaddrs
                         && accesses t ~store:true i = with_vaddrs r.stores r.store_vaddrs
                         && Pipeline.Core.subnormal t.log i = r.subnormal
                         && Pipeline.Core.div_latency t i = r.div_lat)
                       reference))
             uarches))

(* Minor-heap words [f ()] allocates, less what measuring a call that
   allocates nothing reads. *)
let minor_words f =
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  int_of_float (words f -. words ignore)

(* Words [f ()] allocates on the minor and the major heap together.
   OCaml 5 brings the minor count that [Gc.allocated_bytes] reads up to
   date only at a minor collection, so one brackets the call. *)
let allocated_words f =
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)

(* The cycle loop's allocation contract: a cache access and a port
   claim allocate nothing, and [Core.simulate] on a warm reused machine
   allocates a per-call constant that does not grow with the trace. Building a trace allocates per block
   position only, so the same at unroll 8 and 64: it reads the step log
   in place. A compiled run computes on unboxed state, so per dynamic
   step it allocates only the fresh step log's six flat arrays: 6.0
   words per step on the scalar blocks and on the vector block (loads,
   FMA, subnormal traffic), bounded at 8 (the interpreter took 26). A
   mapping memo miss records into the domain's log instead, so once
   that log has grown to a mapping's size a miss allocates no step log:
   0.0 words per step, bounded at 1 (a fresh log per miss took 6.0). *)
let test_allocation_contract () =
  let c = Memsim.Cache.l1_default () in
  let addrs = Array.init 1000 (fun k -> k * 60) in
  let accesses () =
    for k = 0 to Array.length addrs - 1 do
      ignore (Memsim.Cache.access c ~addr:addrs.(k) ~size:8);
      ignore (Memsim.Cache.crosses_line c ~addr:addrs.(k) ~size:8)
    done
  in
  Alcotest.(check int) "Cache.access words" 0 (minor_words accesses);
  let ps = Uarch.Port_schedule.create ~n_ports:4 in
  let claims () =
    Uarch.Port_schedule.reset ps;
    for k = 0 to 999 do
      ignore (Uarch.Port_schedule.claim ps ~port:(k land 3) ~ready:(k / 3) ~busy:(1 + (k mod 5)))
    done
  in
  claims ();
  Alcotest.(check int) "Port_schedule.claim words" 0 (minor_words claims);
  let block =
    Parser.block_exn
      "mov $7, %rcx\n\
       xor %rdx, %rdx\n\
       mov (%rbx), %rax\n\
       add $3, %rax\n\
       divq %rcx\n\
       mov %rax, 8(%rbx)"
  in
  let env = Harness.Environment.default in
  let mapped block unroll =
    match Harness.Mapping.run env block ~unroll with
    | Ok m -> m
    | Error f -> Alcotest.failf "%s" (Harness.Mapping.failure_to_string f)
  in
  let steps unroll = (mapped block unroll).steps in
  List.iter
    (fun (name, block, bound) ->
      let m8 = mapped block 8 and m64 = mapped block 64 in
      let per_step f =
        (allocated_words (f m64 64) -. allocated_words (f m8 8))
        /. float_of_int ((64 - 8) * List.length block)
      in
      let run (m : Harness.Mapping.success) unroll () =
        let st = Xsem.Machine_state.create () in
        Xsem.Machine_state.init_constant st (Harness.Environment.fill_value_u64 env);
        st.ftz <- env.disable_underflow;
        match Xsem.Executor.run_unrolled st m.mmu block ~unroll with
        | Xsem.Executor.Completed _ -> ()
        | Faulted _ -> Alcotest.fail "fault"
      in
      let words = per_step run in
      Alcotest.(check bool)
        (Printf.sprintf "%s: Executor.run_unrolled %.1f words/step <= %.0f" name words bound)
        true (words <= bound);
      let trace (m : Harness.Mapping.success) () =
        ignore (Pipeline.Trace.of_steps Uarch.All.haswell m.steps)
      in
      trace m8 ();
      Alcotest.(check int)
        (name ^ ": Trace.of_steps words, unroll 8 vs 64")
        (int_of_float (allocated_words (trace m8)))
        (int_of_float (allocated_words (trace m64))))
    [
      ("contract block", block, 8.);
      ("gzip crc", Corpus.Paper_blocks.gzip_crc, 8.);
      ("tensorflow ablation", Corpus.Paper_blocks.tensorflow_ablation, 8.);
    ];
  (* Not the tensorflow block: it maps 9 pages at unroll 64 and 2 at
     unroll 8, and each restart builds a machine state and compiles the
     block again. *)
  List.iter
    (fun (name, block) ->
      let memo = Harness.Mapping_memo.create () and keys = ref 0 in
      let miss unroll () =
        incr keys;
        ignore (Harness.Mapping_memo.map memo ~key:(string_of_int !keys) env block ~unroll)
      in
      (* grow the domain's log, the pack buffer and the arena first *)
      miss 64 ();
      let words =
        (allocated_words (miss 64) -. allocated_words (miss 8))
        /. float_of_int ((64 - 8) * List.length block)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: Mapping_memo.map miss %.1f words/step <= 1" name words)
        true (words <= 1.))
    [ ("contract block", block); ("gzip crc", Corpus.Paper_blocks.gzip_crc) ];
  List.iter
    (fun (d : Uarch.Descriptor.t) ->
      let m = Pipeline.Machine.create d in
      let simulate trace () =
        ignore
          (Pipeline.Core.simulate ~scratch:m.scratch d ~l1d:m.l1d ~l1i:m.l1i ~l2:m.l2 trace)
      in
      let t8 = Pipeline.Trace.of_steps d (steps 8) and t64 = Pipeline.Trace.of_steps d (steps 64) in
      (* grow the machine's tables to the longer trace first *)
      simulate t64 ();
      simulate t8 ();
      Alcotest.(check int)
        (d.short ^ " Core.simulate words, unroll 8 vs 64")
        (minor_words (simulate t8))
        (minor_words (simulate t64)))
    uarches

(* Every statistic the simulator feeds into a profile, over the corpus
   slice perfbench's measure-warm profiles (scale 1/4000) on ivb, hsw
   and skl, as one digest: each profile's throughput, accept flag and
   reject reason, and each measure point's unroll, accepted and best
   cycles, clean timings, faults, distinct frames and every counter.
   A change that only speeds up the cycle loop, the caches, the port
   schedule or the mapping path must leave it where it is. *)
let test_simulated_statistics_golden () =
  let env = Manifest.Spec.environment_of_filters Manifest.Spec.default_filters in
  let blocks =
    Corpus.Suite.generate ~config:{ Corpus.Suite.default_config with scale = 4000 } ()
  in
  let b = Buffer.create 65536 in
  let point (p : Harness.Profiler.point) =
    let c = p.counters in
    Printf.bprintf b " [%d %s %d %d %d %d | %d %d %d %d %d %d %d %d %d (%s) %d %d %d]" p.unroll
      (Option.fold ~none:"-" ~some:string_of_int p.accepted_cycles)
      p.best_cycles p.clean_timings p.faults p.distinct_frames c.core_cycles c.instructions
      c.uops c.l1d_read_misses c.l1d_write_misses c.l1i_misses c.l2_misses
      c.misaligned_mem_refs c.subnormal_assists
      (String.concat "," (Array.to_list (Array.map string_of_int c.port_cycles)))
      c.frontend_stall_cycles c.rob_stall_cycles c.port_contention_cycles
  in
  List.iter
    (fun (d : Uarch.Descriptor.t) ->
      List.iteri
        (fun i (blk : Corpus.Block.t) ->
          if d.supports_avx2 || not (Corpus.Block.uses_avx2 blk) then begin
            Printf.bprintf b "%s %d:" d.short i;
            (match Harness.Profiler.profile env d blk.insts with
            | Error f -> Printf.bprintf b " %s" (Harness.Profiler.failure_to_string f)
            | Ok p ->
              Printf.bprintf b " %h %b %s" p.throughput p.accepted
                (Option.fold ~none:"-"
                   ~some:(fun r -> Harness.Profiler.(failure_to_string (Rejected r)))
                   p.reject);
              point p.large;
              Option.iter point p.small);
            Buffer.add_char b '\n'
          end)
        blocks)
    uarches;
  Alcotest.(check string) "digest of simulated statistics"
    "aaedd10a6ede5d444bd9bcf365aea1f4"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    batch_matches_fresh;
    Alcotest.test_case "flat decompose == profile decompose" `Quick
      test_flat_decompose_matches_profile;
    Alcotest.test_case "flat table digests golden" `Quick
      test_flat_digest_golden;
    Alcotest.test_case "batch mixed block" `Quick test_batch_mixed_block;
    trace_reuse_matches_run;
    Alcotest.test_case "L1 residency verdict is exact" `Quick test_verdict_exact;
    trace_matches_reference;
    Alcotest.test_case "allocation contract" `Quick test_allocation_contract;
    Alcotest.test_case "simulated statistics golden" `Quick
      test_simulated_statistics_golden;
  ]
