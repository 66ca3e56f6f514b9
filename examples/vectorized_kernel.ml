(* Profiling a large vectorised kernel: the TensorFlow-style block from
   the paper's Table II, driven through each measurement configuration to
   show why every technique is needed.

   Run with: dune exec examples/vectorized_kernel.exe *)

let () =
  let block = Corpus.Paper_blocks.tensorflow_ablation in
  Printf.printf "kernel: %d instructions, %d bytes of code (so 100x unrolling = %d KiB)\n\n"
    (List.length block)
    (X86.Encoder.block_length block)
    (100 * X86.Encoder.block_length block / 1024);
  let rows = Bhive.Ablation.block_ablation ~engine:(Engine.create ()) block in
  Bhive.Report.block_ablation Format.std_formatter rows;

  (* The production configuration measures it cleanly. *)
  print_newline ();
  match Harness.Profiler.profile Harness.Environment.default Uarch.All.haswell block with
  | Ok p ->
    Printf.printf
      "final configuration: %.2f cycles/iteration with unroll factors %d and %d\n"
      p.throughput p.factors.large p.factors.small;
    Printf.printf "clean counters: %s\n"
      (Format.asprintf "%a" Pipeline.Counters.pp p.large.counters)
  | Error f -> Printf.printf "failed: %s\n" (Harness.Profiler.failure_to_string f)
