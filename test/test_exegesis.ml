(* The instruction-characterisation tool must agree with the
   microarchitecture tables it is (indirectly) measuring: this is a
   self-consistency check between the profiler-based measurement path and
   the uop decomposition tables. *)

let hsw = Uarch.All.haswell
let engine = Engine.create ~jobs:1 ()

let characterize form =
  match Exegesis.Characterize.characterize ~engine hsw form with
  | Some r -> r
  | None -> Alcotest.failf "characterisation failed for %s" (Exegesis.Benchgen.form_name form)

let form opcode ?(width = X86.Width.Q) shape =
  { Exegesis.Benchgen.opcode; width; shape }

let check_lat name expected (r : Exegesis.Characterize.result) =
  match r.latency with
  | Some l ->
    if Float.abs (l -. expected) > 0.3 then
      Alcotest.failf "%s: latency %.2f, expected %.2f" name l expected
  | None -> Alcotest.failf "%s: no latency" name

let check_rtp name expected (r : Exegesis.Characterize.result) =
  if Float.abs (r.rthroughput -. expected) > 0.12 then
    Alcotest.failf "%s: rthroughput %.2f, expected %.2f" name r.rthroughput expected

let test_alu () =
  let r = characterize (form X86.Opcode.Add `RR) in
  check_lat "add" 1.0 r;
  check_rtp "add" 0.25 r;
  Alcotest.(check (float 0.1)) "add 1 uop" 1.0 r.uops

let test_imul () =
  let r = characterize (form X86.Opcode.Imul_rr `RR) in
  check_lat "imul" 3.0 r;
  check_rtp "imul" 1.0 r

let test_load_op () =
  let r = characterize (form X86.Opcode.Add `RM) in
  Alcotest.(check (float 0.1)) "load-op 2 uops" 2.0 r.uops;
  check_rtp "add rm" 0.5 r

let test_store () =
  let r = characterize (form X86.Opcode.Mov `MR) in
  Alcotest.(check bool) "store has no latency chain" true (r.latency = None);
  check_rtp "store" 1.0 r (* one store-data port *)

let test_fp () =
  let r = characterize (form (X86.Opcode.Fmul X86.Opcode.Ps) `VV) in
  check_lat "mulps" 5.0 r;
  check_rtp "mulps" 0.5 r;
  let r = characterize (form (X86.Opcode.Fadd X86.Opcode.Ps) `VV) in
  check_lat "addps" 3.0 r;
  check_rtp "addps (one FP add port)" 1.0 r

let test_divider_not_pipelined () =
  let r = characterize (form (X86.Opcode.Fdiv X86.Opcode.Ss) `VV) in
  Alcotest.(check bool)
    (Printf.sprintf "divss rtp (%.1f) close to latency (%.1f)" r.rthroughput
       (Option.value ~default:0.0 r.latency))
    true
    (r.rthroughput > 0.7 *. Option.value ~default:0.0 r.latency)

let test_move_elimination_visible () =
  let r = characterize (form X86.Opcode.Mov `RR) in
  match r.latency with
  | Some l -> Alcotest.(check bool) "eliminated move latency < 1" true (l < 1.0)
  | None -> Alcotest.fail "mov rr should chain"

let test_zero_idiom_not_chained () =
  Alcotest.(check bool) "xor same-reg chain refused" true
    (Exegesis.Benchgen.latency_block (form X86.Opcode.Xor `RR) ~n:1 = None)

let test_skylake_differs () =
  let hsw_mul = characterize (form (X86.Opcode.Fmul X86.Opcode.Ps) `VV) in
  match Exegesis.Characterize.characterize ~engine Uarch.All.skylake (form (X86.Opcode.Fmul X86.Opcode.Ps) `VV) with
  | None -> Alcotest.fail "skl characterisation failed"
  | Some skl_mul ->
    Alcotest.(check bool) "skl mulps latency 4 < hsw 5" true
      (Option.get skl_mul.latency < Option.get hsw_mul.latency)

let test_table_complete () =
  let rows = Exegesis.Characterize.table ~engine hsw in
  Alcotest.(check int) "all standard forms measured"
    (List.length Exegesis.Benchgen.standard_forms)
    (List.length rows);
  List.iter
    (fun (r : Exegesis.Characterize.result) ->
      Alcotest.(check bool) "rtp positive" true (r.rthroughput > 0.0);
      Alcotest.(check bool) "uops >= 1" true (r.uops >= 1.0))
    rows

let test_benchmark_shapes () =
  let f = form X86.Opcode.Add `RR in
  (match Exegesis.Benchgen.latency_block f ~n:3 with
  | Some block -> Alcotest.(check int) "chain length" 3 (List.length block)
  | None -> Alcotest.fail "add should chain");
  let tp = Exegesis.Benchgen.throughput_block f ~copies:5 in
  Alcotest.(check int) "copies" 5 (List.length tp);
  (* destinations pairwise distinct *)
  let dsts =
    List.filter_map
      (fun (i : X86.Inst.t) ->
        match i.operands with X86.Operand.Reg r :: _ -> Some r | _ -> None)
      tp
  in
  Alcotest.(check int) "disjoint destinations" 5
    (List.length (List.sort_uniq compare dsts))

let test_portmap_inference () =
  (* the inference must recover the table's port combination for every
     standard target (a measurement-vs-table consistency check) *)
  let entries =
    Exegesis.Portmap.survey ~engine hsw Exegesis.Portmap.standard_targets
  in
  List.iter
    (fun (e : Exegesis.Portmap.entry) ->
      match (e.inferred, e.expected) with
      | Some inf, Some exp ->
        if not (Uarch.Port.equal inf exp) then
          Alcotest.failf "%s: inferred %s, table says %s" e.name
            (Uarch.Port.name inf) (Uarch.Port.name exp)
      | None, _ -> Alcotest.failf "%s: no inference" e.name
      | _, None -> Alcotest.failf "%s: no table entry" e.name)
    entries

let test_portmap_blockers_single_port () =
  (* each blocker must indeed be confined to its port in the tables *)
  List.iter
    (fun port ->
      let b = Exegesis.Portmap.blocker_for_port port 0 in
      match Exegesis.Portmap.expected_ports hsw b with
      | Some s ->
        if not (Uarch.Port.equal s (Uarch.Port.singleton port)) then
          Alcotest.failf "blocker for p%d uses %s" port (Uarch.Port.name s)
      | None -> Alcotest.failf "blocker for p%d has no exec uop" port)
    Exegesis.Portmap.supported_ports

let suite =
  [
    Alcotest.test_case "portmap inference" `Quick test_portmap_inference;
    Alcotest.test_case "portmap blockers" `Quick test_portmap_blockers_single_port;
    Alcotest.test_case "alu" `Quick test_alu;
    Alcotest.test_case "imul" `Quick test_imul;
    Alcotest.test_case "load-op" `Quick test_load_op;
    Alcotest.test_case "store" `Quick test_store;
    Alcotest.test_case "fp" `Quick test_fp;
    Alcotest.test_case "divider not pipelined" `Quick test_divider_not_pipelined;
    Alcotest.test_case "move elimination" `Quick test_move_elimination_visible;
    Alcotest.test_case "zero idiom not chained" `Quick test_zero_idiom_not_chained;
    Alcotest.test_case "skylake differs" `Quick test_skylake_differs;
    Alcotest.test_case "table complete" `Quick test_table_complete;
    Alcotest.test_case "benchmark shapes" `Quick test_benchmark_shapes;
  ]
