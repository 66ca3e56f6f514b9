(* CSV round-trip of measured datasets. *)

let small_dataset =
  lazy
    (let config = { Corpus.Suite.default_config with scale = 3000 } in
     let blocks = Corpus.Suite.generate ~config () in
     Bhive.Dataset.build ~engine:(Engine.create ()) Uarch.All.haswell blocks)

let test_roundtrip () =
  let ds = Lazy.force small_dataset in
  let csv = Bhive.Export.to_string ds in
  let rows = Bhive.Export.of_string csv in
  Alcotest.(check int) "row count" (Bhive.Dataset.size ds) (List.length rows);
  List.iter2
    (fun (e : Bhive.Dataset.entry) (r : Bhive.Export.row) ->
      Alcotest.(check string) "id" e.block.id r.block.id;
      Alcotest.(check string) "app" e.block.app r.block.app;
      Alcotest.(check int) "freq" e.block.freq r.block.freq;
      Alcotest.(check (float 1e-5)) "throughput" e.throughput r.throughput;
      Alcotest.(check int) "block length" (Corpus.Block.length e.block)
        (Corpus.Block.length r.block);
      List.iter2
        (fun a b -> Alcotest.(check bool) "inst" true (X86.Inst.equal a b))
        e.block.insts r.block.insts)
    ds.entries rows

let test_file_roundtrip () =
  let ds = Lazy.force small_dataset in
  let path = Filename.temp_file "bhive" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bhive.Export.to_file path ds;
      let rows = Bhive.Export.of_file path in
      Alcotest.(check int) "rows" (Bhive.Dataset.size ds) (List.length rows))

let test_header_required () =
  Alcotest.(check bool) "rejects missing header" true
    (try
       ignore (Bhive.Export.of_string "not,a,header\n");
       false
     with Bhive.Export.Parse_error _ -> true)

let test_bad_row () =
  let bad = Bhive.Export.header ^ "\nonly,three,fields\n" in
  Alcotest.(check bool) "rejects bad row" true
    (try
       ignore (Bhive.Export.of_string bad);
       false
     with Bhive.Export.Parse_error _ -> true)

let test_training_pairs () =
  let ds = Lazy.force small_dataset in
  let rows = Bhive.Export.of_string (Bhive.Export.to_string ds) in
  let pairs = Bhive.Export.training_pairs rows in
  Alcotest.(check int) "pair count" (List.length rows) (List.length pairs);
  (* a model trained from the CSV behaves like one trained in-process *)
  let t = Models.Ithemal.train pairs in
  let e = List.hd ds.entries in
  let p = Models.Ithemal.predict_block t e.block.insts in
  Alcotest.(check bool) "prediction sane" true (p > 0.0 && Float.is_finite p)

let test_csv_quoting () =
  (* ids and block text containing commas survive *)
  let b =
    Corpus.Block.make ~id:"odd,id" ~app:"test"
      (X86.Parser.block_exn "lea 8(%rax, %rbx, 2), %rcx")
  in
  let ds =
    {
      (Lazy.force small_dataset) with
      entries =
        [ { block = b; throughput = 1.5; faults = 0; unroll_large = 10; unroll_small = 5 } ];
    }
  in
  let rows = Bhive.Export.of_string (Bhive.Export.to_string ds) in
  match rows with
  | [ r ] ->
    Alcotest.(check string) "quoted id" "odd,id" r.block.id;
    Alcotest.(check int) "block" 1 (Corpus.Block.length r.block)
  | _ -> Alcotest.fail "expected one row"

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "header required" `Quick test_header_required;
    Alcotest.test_case "bad row" `Quick test_bad_row;
    Alcotest.test_case "training pairs" `Quick test_training_pairs;
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
  ]
