(* "Our dataset can be used as training data for learning-based cost
   models": build a measured dataset from the generated suite, train the
   learned throughput predictor on a split of it, and evaluate against
   the held-out blocks.

   Run with: dune exec examples/train_ithemal.exe *)

let () =
  let config = { Corpus.Suite.default_config with scale = 300 } in
  let blocks = Corpus.Suite.generate ~config () in
  Printf.printf "generated %d blocks; profiling on Haswell...\n%!" (List.length blocks);

  let dataset =
    Bhive.Dataset.build ~engine:(Engine.create ()) Uarch.All.haswell blocks
  in
  Printf.printf "dataset: %d measured blocks (%.1f%% of the corpus)\n%!"
    (Bhive.Dataset.size dataset)
    (100.0 *. Bhive.Dataset.profiled_fraction dataset);

  let train, eval = Bhive.Dataset.split ~train_fraction:0.85 dataset in
  Printf.printf "training on %d blocks, evaluating on %d held-out blocks\n%!"
    (List.length train) (List.length eval);
  let model =
    Models.Ithemal.train
      (List.map (fun (e : Bhive.Dataset.entry) -> (e.block.insts, e.throughput)) train)
  in

  let errors =
    List.map
      (fun (e : Bhive.Dataset.entry) ->
        let predicted = Models.Ithemal.predict_block model e.block.insts in
        Bstats.Error.relative ~predicted ~measured:e.throughput)
      eval
  in
  Printf.printf "held-out average relative error: %.4f\n" (Bstats.Error.average errors);
  Printf.printf "median: %.4f, 90th percentile: %.4f\n"
    (Bstats.Error.median errors)
    (Bstats.Error.percentile 0.9 errors);

  (* compare with the static analyzers on the same held-out set *)
  List.iter
    (fun (m : Models.Model_intf.t) ->
      let errs =
        List.filter_map
          (fun (e : Bhive.Dataset.entry) ->
            match m.predict e.block.insts with
            | Models.Model_intf.Throughput tp ->
              Some (Bstats.Error.relative ~predicted:tp ~measured:e.throughput)
            | Models.Model_intf.Unsupported _ -> None)
          eval
      in
      Printf.printf "%-10s average error %.4f\n" m.name (Bstats.Error.average errs))
    [ Models.Iaca.create Uarch.All.haswell;
      Models.Llvm_mca.create Uarch.All.haswell;
      Models.Osaca.create Uarch.All.haswell ]
