let () =
  (* multi-process store tests re-execute this binary as their child
     processes (Unix.fork is unavailable once domains exist) *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = Test_store.child_tag then
    Test_store.child_main Sys.argv;
  Alcotest.run "bhive"
    [
      ("width", Test_width.suite);
      ("reg", Test_reg.suite);
      ("inst", Test_inst.suite);
      ("parser", Test_parser.suite);
      ("encoder", Test_encoder.suite);
      ("memsim", Test_memsim.suite);
      ("semantics", Test_semantics.suite);
      ("semantics2", Test_semantics2.suite);
      ("executor", Test_executor.suite);
      ("properties", Test_properties.suite);
      ("uarch", Test_uarch.suite);
      ("pipeline", Test_pipeline.suite);
      ("batch", Test_batch.suite);
      ("l2", Test_l2.suite);
      ("harness", Test_harness.suite);
      ("engine", Test_engine.suite);
      ("memo", Test_memo.suite);
      ("telemetry", Test_telemetry.suite);
      ("corpus", Test_corpus.suite);
      ("gen", Test_gen.suite);
      ("classify", Test_classify.suite);
      ("models", Test_models.suite);
      ("static-sim", Test_static_sim.suite);
      ("exegesis", Test_exegesis.suite);
      ("bstats", Test_bstats.suite);
      ("bhive", Test_bhive.suite);
      ("export", Test_export.suite);
      ("kernels", Test_kernels.suite);
      ("store", Test_store.suite);
      ("manifest", Test_manifest.suite);
      ("serve", Test_serve.suite);
      ("refine", Test_refine.suite);
    ]
