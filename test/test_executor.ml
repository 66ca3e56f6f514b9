open X86

let make_env () =
  let st = Xsem.Machine_state.create () in
  let mmu = Memsim.Mmu.create () in
  for vpn = 0x10 to 0x14 do
    ignore (Memsim.Mmu.map_fresh mmu (Int64.of_int vpn))
  done;
  (st, mmu)

let test_fault_position () =
  let st, mmu = make_env () in
  Xsem.Machine_state.set_reg st Reg.rbx 0x10000L;
  Xsem.Machine_state.set_reg st Reg.rcx 0x900000L (* unmapped *);
  let block =
    Parser.block_exn "add $1, %rax\nmovq (%rbx), %rdx\nmovq (%rcx), %rsi\nadd $2, %rax"
  in
  match Xsem.Executor.run st mmu block with
  | Xsem.Executor.Faulted { at; steps; fault } ->
    Alcotest.(check int) "faults at index 2" 2 at;
    Alcotest.(check int) "two steps completed" 2 steps.Xsem.Step_log.steps;
    (match fault with
    | Memsim.Fault.Segfault a -> Alcotest.(check int64) "fault addr" 0x900000L a
    | _ -> Alcotest.fail "expected segfault")
  | Completed _ -> Alcotest.fail "expected fault"

let test_partial_state_after_fault () =
  let st, mmu = make_env () in
  Xsem.Machine_state.set_reg st Reg.rcx 0x900000L;
  let block = Parser.block_exn "mov $42, %rax\nmovq (%rcx), %rsi" in
  (match Xsem.Executor.run st mmu block with
  | Xsem.Executor.Faulted _ -> ()
  | Completed _ -> Alcotest.fail "expected fault");
  (* effects before the fault are visible, as for a real SIGSEGV *)
  Alcotest.(check int64) "rax written" 42L (Xsem.Machine_state.get_reg st Reg.rax)

let test_rip_advances () =
  let st, mmu = make_env () in
  let block = Parser.block_exn "add $1, %rax\nadd $2, %rbx" in
  (match Xsem.Executor.run st mmu block with
  | Xsem.Executor.Completed _ -> ()
  | Faulted _ -> Alcotest.fail "fault");
  let expected = Int64.of_int (Encoder.block_length block) in
  Alcotest.(check int64) "rip = code length" expected st.rip

let test_unrolled_accesses () =
  let st, mmu = make_env () in
  Xsem.Machine_state.set_reg st Reg.rbx 0x10000L;
  let block = Parser.block_exn "movq (%rbx), %rax\nadd $8, %rbx" in
  match Xsem.Executor.run_unrolled st mmu block ~unroll:5 with
  | Xsem.Executor.Completed log ->
    Alcotest.(check int) "10 steps" 10 log.Xsem.Step_log.steps;
    let accesses =
      List.concat_map (fun (s : Reference.step) -> s.accesses) (Reference.steps_of_log log)
    in
    Alcotest.(check int) "5 loads" 5 (List.length accesses);
    (* addresses advance by 8 each iteration *)
    List.iteri
      (fun k (a : Reference.access) ->
        Alcotest.(check int) "address" (0x10000 + (8 * k)) a.vaddr)
      accesses
  | Faulted _ -> Alcotest.fail "fault"

let test_step_indices () =
  let st, mmu = make_env () in
  let block = Parser.block_exn "add $1, %rax\nadd $1, %rbx\nadd $1, %rcx" in
  match Xsem.Executor.run st mmu block with
  | Xsem.Executor.Completed log ->
    Alcotest.(check int) "steps" (List.length block) log.Xsem.Step_log.steps;
    (* step k ran block instruction k *)
    List.iteri
      (fun k inst ->
        Alcotest.(check bool) "index" true (Xsem.Step_log.inst log k == inst))
      block
  | Faulted _ -> Alcotest.fail "fault"

let test_events_collected () =
  let st, mmu = make_env () in
  Xsem.Machine_state.set_reg st Reg.rcx 3L;
  Xsem.Machine_state.set_reg st Reg.rax 10L;
  Xsem.Machine_state.set_reg st Reg.rdx 0L;
  let block = Parser.block_exn "divq %rcx" in
  let result = Xsem.Executor.run st mmu block in
  Alcotest.(check bool) "completed" true (Xsem.Executor.completed result);
  match result with
  | Xsem.Executor.Completed log ->
    Alcotest.(check bool) "fast path event" true
      (Xsem.Step_log.any_event log Xsem.Step_log.Div_fast_path)
  | Faulted _ -> Alcotest.fail "fault"

(* A fault rolls back what the faulting instruction recorded: the log
   holds exactly the steps before it, while memory keeps the bytes a
   page-crossing store wrote before its fault, as on real hardware.
   Pages 0x10-0x14 are mapped and 0x15 is not. *)
let test_fault_rollback () =
  let module L = Xsem.Step_log in
  let check_faulted ~at ~addr ~accesses = function
    | Xsem.Executor.Faulted { steps = log; fault; at = at' } ->
      Alcotest.(check int) "faulting index" at at';
      Alcotest.(check int64) "fault address" addr (Memsim.Fault.address fault);
      Alcotest.(check int) "log holds the completed steps" at log.L.steps;
      Alcotest.(check int) "completed steps' accesses" accesses log.L.first.(at);
      Alcotest.(check int) "no access of the faulting instruction" accesses
        log.L.accesses
    | Completed _ -> Alcotest.fail "expected fault"
  in
  (* pop loads its stack slot (recorded), then stores 8 bytes at
     0x14ffc: four land in page 0x14 before the store faults at
     0x15000 *)
  let st, mmu = make_env () in
  Xsem.Machine_state.set_reg st Reg.rbx 0x10000L;
  Xsem.Machine_state.set_reg st Reg.rsp 0x10800L;
  Xsem.Machine_state.set_reg st Reg.rdi 0x14ffcL;
  Memsim.Mmu.write_u64 mmu 0x10800L 0x1122334455667788L;
  Memsim.Mmu.write_u64 mmu 0x14ff8L 0L;
  let block =
    Parser.block_exn "movq (%rbx), %rax\nmovq %rax, 8(%rbx)\npopq (%rdi)\nadd $1, %rax"
  in
  check_faulted ~at:2 ~addr:0x15000L ~accesses:2 (Xsem.Executor.run st mmu block);
  Alcotest.(check int64) "store's first-page bytes written" 0x5566778800000000L
    (Memsim.Mmu.read_u64 mmu 0x14ff8L);
  (* the second copy's 8-byte load at 0x14ffc faults at 0x15000 *)
  let st, mmu = make_env () in
  Xsem.Machine_state.set_reg st Reg.rbx 0x10000L;
  Xsem.Machine_state.set_reg st Reg.rsi 0x14ff4L;
  let block =
    Parser.block_exn "movq %rax, (%rbx)\naddq $8, %rbx\nmovq (%rsi), %rcx\naddq $8, %rsi"
  in
  check_faulted ~at:6 ~addr:0x15000L ~accesses:3
    (Xsem.Executor.run_unrolled st mmu block ~unroll:3)

let test_store_then_load_roundtrip_across_iterations () =
  let st, mmu = make_env () in
  Xsem.Machine_state.set_reg st Reg.rbx 0x10080L;
  Xsem.Machine_state.set_reg st Reg.rax 7L;
  (* accumulate through memory across unrolled iterations *)
  let block = Parser.block_exn "movq %rax, (%rbx)\naddq (%rbx), %rax" in
  match Xsem.Executor.run_unrolled st mmu block ~unroll:3 with
  | Xsem.Executor.Completed _ ->
    (* 7 -> 14 -> 28 -> 56 *)
    Alcotest.(check int64) "accumulated" 56L (Xsem.Machine_state.get_reg st Reg.rax)
  | Faulted _ -> Alcotest.fail "fault"

let test_state_copy_independent () =
  let st, _ = make_env () in
  Xsem.Machine_state.set_reg st Reg.rax 1L;
  let snapshot = Xsem.Machine_state.copy st in
  Xsem.Machine_state.set_reg st Reg.rax 2L;
  Alcotest.(check int64) "snapshot unchanged" 1L
    (Xsem.Machine_state.get_reg snapshot Reg.rax);
  Xsem.Machine_state.copy_into ~src:snapshot ~dst:st;
  Alcotest.(check int64) "restored" 1L (Xsem.Machine_state.get_reg st Reg.rax)

let test_init_constant () =
  let st = Xsem.Machine_state.create () in
  Xsem.Machine_state.init_constant st 0x12345600L;
  List.iter
    (fun g ->
      Alcotest.(check int64) "gpr init" 0x12345600L
        (Xsem.Machine_state.get_gpr64 st g))
    Reg.all_gprs;
  let v = Xsem.Machine_state.get_vec st (Reg.Xmm 3) in
  Alcotest.(check int32) "vec fill" 0x12345600l (Bytes.get_int32_le v 0);
  Alcotest.(check int32) "vec fill repeats" 0x12345600l (Bytes.get_int32_le v 12)

(* Instructions addressing memory relative to RIP: their addresses, and
   lea's result, move with every copy, so they pin RIP's advance. The
   load and store start near the end of the register-fill page and
   cross into the next page after a few copies. *)
let rip_relative =
  Parser.block_exn
    "leaq 0x40(%rip), %r10\n\
     movq 0x12345f00(%rip), %r11\n\
     addq %r11, 0x12345f80(%rip)"

(* Stores from the register-fill value across the end of its page:
   the first page's bytes land before the second page's fault. *)
let page_crossing = Parser.block_exn "movq %rax, 0x9fd(%r15)\nmovups %xmm0, 0x9f8(%r14)"

(* Divides on every path: the fast path, the slow path at 64 bits (the
   bitwise 128/64 division) and at 32, a #DE (EDX holds the fill value,
   as large as ECX), the byte form's AX dividend and 16-bit idiv's
   AX-only dividend. *)
let divides =
  List.map Parser.block_exn
    [
      "xorl %edx, %edx\ndivq %rcx";
      "movl $1, %edx\ndivq %rcx";
      "movl $1, %edx\ndivl %ecx";
      "divl %ecx";
      "cqo\nidivq %rcx";
      "idivw %cx";
      "divb %cl";
    ]

(* A subnormal float in a vector register, consumed by a packed and a
   scalar operation: a Subnormal event, or a flush under FTZ. *)
let subnormals =
  List.map Parser.block_exn
    [
      "movl $1, %r9d\nmovd %r9d, %xmm15\naddps %xmm15, %xmm14";
      "movq $1, %r9\nmovq %r9, %xmm15\nmulsd %xmm15, %xmm13\nsqrtpd %xmm15, %xmm12";
    ]

let splice block piece at =
  List.filteri (fun i _ -> i < at) block @ piece @ List.filteri (fun i _ -> i >= at) block

(* Where a case's memory comes from: only the register-fill page, or
   the monitor's mapping under one of its two modes. *)
type memory = Fill_page | Mapped of Harness.Environment.mapping_mode

let memory_name = function
  | Fill_page -> "fill page"
  | Mapped Harness.Environment.Single_physical_page -> "single physical page"
  | Mapped Harness.Environment.Fresh_pages -> "fresh pages"
  | Mapped Harness.Environment.No_mapping -> "no mapping"

(* A random block from any application's instruction mix, with a
   RIP-relative instruction or a page-crossing store, a divide and a
   subnormal source spliced in; an unroll; the memory; and FTZ on or
   off. Runs on the fill page alone fault early, some in a later copy. *)
let unrolled_gen =
  QCheck.Gen.(
    let* seed = int_range 0 100000 in
    let* app = oneofl (Corpus.Apps.all_apps @ [ Corpus.Apps.spanner; Corpus.Apps.dremel ]) in
    let* rip = oneofl (rip_relative @ page_crossing) in
    let* div = oneofl divides in
    let* sub = oneofl subnormals in
    let* unroll = int_range 1 8 in
    let* memory =
      oneofl
        [
          Fill_page;
          Mapped Harness.Environment.Single_physical_page;
          Mapped Harness.Environment.Fresh_pages;
        ]
    in
    let* ftz = bool in
    let rng = Bstats.Rng.create (Int64.of_int seed) in
    let block = Corpus.Gen.block ~rng ~mix:app.mix ~min_len:1 ~max_len:6 in
    let* a = int_range 0 (List.length block) in
    let block = splice block [ rip ] a in
    let* b = int_range 0 (List.length block) in
    let block = splice block div b in
    let* c = int_range 0 (List.length block) in
    let block = splice block sub c in
    return (block, unroll, memory, ftz))

(* A constructor of [Opcode.t], apart from its arguments. *)
let constructor (op : Opcode.t) =
  let r = Obj.repr op in
  if Obj.is_int r then (0, (Obj.obj r : int)) else (1, Obj.tag r)

(* Every allocated frame's bytes. *)
let frames mmu =
  let phys = Memsim.Mmu.phys mmu in
  List.init
    (phys.Memsim.Phys_mem.next_free - Memsim.Phys_mem.first_pfn)
    (fun k -> Bytes.to_string (Memsim.Phys_mem.frame_int phys (Memsim.Phys_mem.first_pfn + k)))

(* [run_unrolled] == the concatenating reference ({!Reference.run}),
   which runs the reference interpreter (semantics.ml) one instruction
   at a time: the same steps in the log (index, inst, accesses, events),
   the same fault and position for a block that faults, the same final
   registers, flags, RIP and vector file, and the same bytes in every
   frame. Both sides start from equal states over equal memories: the
   monitor's mapping is deterministic, so running it twice builds two
   equal MMUs.

   The cases are the random ones above and, so that every run covers
   the corpus, the first corpus block (scale 2000) using each opcode
   constructor, mapped under both modes with FTZ off and on. Together
   they must execute every opcode constructor that corpus uses. *)
let test_run_unrolled_matches_reference () =
  let corpus = Corpus.Suite.generate ~config:{ Corpus.Suite.scale = 2000; seed = 7L } () in
  let firsts = Hashtbl.create 128 in
  List.iter
    (fun (b : Corpus.Block.t) ->
      List.iter
        (fun (i : Inst.t) ->
          if not (Hashtbl.mem firsts (constructor i.opcode)) then
            Hashtbl.replace firsts (constructor i.opcode) (i, b.insts))
        b.insts)
    corpus;
  let executed = Hashtbl.create 128 in
  let prop (block, unroll, memory, ftz) =
    let env = { Harness.Environment.default with disable_underflow = ftz } in
    let fill = Harness.Environment.fill_value_u64 env in
    let fill_page_only () =
      let mmu = Memsim.Mmu.create () in
      ignore (Memsim.Mmu.map_fresh mmu (Memsim.Fault.page_of_address fill));
      mmu
    in
    let setup () =
      let mmu =
        match memory with
        | Fill_page -> fill_page_only ()
        | Mapped mapping -> (
          match Harness.Mapping.run { env with mapping } block ~unroll with
          | Ok m -> m.mmu
          | Error _ -> fill_page_only ())
      in
      let st = Xsem.Machine_state.create () in
      Xsem.Machine_state.init_constant st fill;
      st.ftz <- ftz;
      (st, mmu)
    in
    let st, mmu = setup () and ref_st, ref_mmu = setup () in
    (* a one-step log, so that every run grows its arrays *)
    let log = Xsem.Step_log.create ~steps:1 in
    let result = Xsem.Executor.run_unrolled ~log st mmu block ~unroll in
    for i = 0 to log.steps - 1 do
      Hashtbl.replace executed (constructor (Xsem.Step_log.inst log i).opcode) ()
    done;
    Reference.of_run result = Reference.run ref_st ref_mmu block ~unroll
    && st = ref_st
    && frames mmu = frames ref_mmu
  in
  let print (b, unroll, memory, ftz) =
    Printf.sprintf "unroll %d, %s, ftz %b: %s" unroll (memory_name memory) ftz
      (String.concat "; " (List.map Inst.to_string b))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"run_unrolled == concatenated reference" ~count:500
       (QCheck.make ~print unrolled_gen) prop);
  Hashtbl.iter
    (fun _ (_, block) ->
      List.iter
        (fun case -> if not (prop case) then Alcotest.failf "differs on %s" (print case))
        [
          (block, 2, Mapped Harness.Environment.Single_physical_page, false);
          (block, 2, Mapped Harness.Environment.Fresh_pages, true);
        ])
    firsts;
  let missing =
    Hashtbl.fold
      (fun k ((i : Inst.t), _) acc ->
        if Hashtbl.mem executed k then acc else Opcode.mnemonic i.opcode :: acc)
      firsts []
  in
  if missing <> [] then
    Alcotest.failf "corpus opcodes no case executed: %s"
      (String.concat ", " (List.sort String.compare missing))

let suite =
  [
    Alcotest.test_case "fault position" `Quick test_fault_position;
    Alcotest.test_case "partial state after fault" `Quick test_partial_state_after_fault;
    Alcotest.test_case "rip advances" `Quick test_rip_advances;
    Alcotest.test_case "unrolled accesses" `Quick test_unrolled_accesses;
    Alcotest.test_case "step indices" `Quick test_step_indices;
    Alcotest.test_case "events collected" `Quick test_events_collected;
    Alcotest.test_case "fault rollback" `Quick test_fault_rollback;
    Alcotest.test_case "memory accumulate" `Quick test_store_then_load_roundtrip_across_iterations;
    Alcotest.test_case "state copy" `Quick test_state_copy_independent;
    Alcotest.test_case "init constant" `Quick test_init_constant;
    Alcotest.test_case "run_unrolled == concatenated reference" `Quick
      test_run_unrolled_matches_reference;
  ]
