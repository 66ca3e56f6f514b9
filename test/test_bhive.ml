(* Integration tests for the top-level dataset / validation / ablation
   pipeline at a very small corpus scale. *)

let config = { Corpus.Suite.default_config with scale = 2000 }

let blocks = lazy (Corpus.Suite.generate ~config ())

(* one engine for the whole file, so the tables share its memo cache *)
let engine = Engine.create ()

let hsw_dataset =
  lazy (Bhive.Dataset.build ~engine Uarch.All.haswell (Lazy.force blocks))

let test_dataset_builds () =
  let ds = Lazy.force hsw_dataset in
  Alcotest.(check bool) "profiles most blocks" true (Bhive.Dataset.profiled_fraction ds > 0.8);
  List.iter
    (fun (e : Bhive.Dataset.entry) ->
      Alcotest.(check bool) "throughput positive" true (e.throughput > 0.0);
      Alcotest.(check bool) "unroll sane" true (e.unroll_large > e.unroll_small))
    ds.entries

let test_avx2_exclusion () =
  let ds_ivb =
    Bhive.Dataset.build ~engine Uarch.All.ivy_bridge (Lazy.force blocks)
  in
  let has_avx2 =
    List.exists Corpus.Block.uses_avx2 (Lazy.force blocks)
  in
  if has_avx2 then
    Alcotest.(check bool) "ivb excludes avx2" true (ds_ivb.n_avx2_excluded > 0);
  List.iter
    (fun (e : Bhive.Dataset.entry) ->
      Alcotest.(check bool) "no avx2 in ivb dataset" false (Corpus.Block.uses_avx2 e.block))
    ds_ivb.entries

let test_split_deterministic_partition () =
  let ds = Lazy.force hsw_dataset in
  let train, eval = Bhive.Dataset.split ~train_fraction:0.75 ds in
  Alcotest.(check int) "partition" (Bhive.Dataset.size ds)
    (List.length train + List.length eval);
  let train2, _ = Bhive.Dataset.split ~train_fraction:0.75 ds in
  Alcotest.(check int) "deterministic" (List.length train) (List.length train2);
  Alcotest.(check bool) "both non-empty" true (train <> [] && eval <> [])

let test_validation_runs () =
  let ds = Lazy.force hsw_dataset in
  let evals = Bhive.Validation.evaluate_all ~engine ds in
  Alcotest.(check int) "four models" 4 (List.length evals);
  List.iter
    (fun (e : Bhive.Validation.eval) ->
      Alcotest.(check bool) (e.model ^ " has samples") true (e.samples <> []);
      Alcotest.(check bool) (e.model ^ " error finite") true (Float.is_finite e.average_error);
      Alcotest.(check bool) (e.model ^ " error positive") true (e.average_error > 0.0);
      Alcotest.(check bool) (e.model ^ " tau in range") true
        (e.kendall_tau >= -1.0 && e.kendall_tau <= 1.0))
    evals

let test_model_ordering () =
  (* the paper's qualitative result, at a larger scale: the learned model
     is best and OSACA is worst; the threshold here is lenient because
     the corpus is tiny *)
  let ds = Lazy.force hsw_dataset in
  let evals = Bhive.Validation.evaluate_all ~engine ds in
  let err name =
    (List.find (fun (e : Bhive.Validation.eval) -> e.model = name) evals).average_error
  in
  Alcotest.(check bool)
    (Printf.sprintf "OSACA (%.3f) worse than IACA (%.3f)" (err "OSACA") (err "IACA"))
    true
    (err "OSACA" > err "IACA")

let test_by_app_breakdown () =
  let ds = Lazy.force hsw_dataset in
  let evals = Bhive.Validation.evaluate_all ~engine ds in
  let by_app = Bhive.Validation.by_app (List.hd evals) in
  Alcotest.(check bool) "has apps" true (by_app <> []);
  List.iter
    (fun (_, err) ->
      Alcotest.(check bool) "finite" true (Float.is_finite err || Float.is_nan err))
    by_app

let test_suite_ablation_monotone () =
  let rows = Bhive.Ablation.suite_ablation ~engine (Lazy.force blocks) in
  match rows with
  | [ none; mapping; unrolling ] ->
    Alcotest.(check bool)
      (Printf.sprintf "monotone %f <= %f <= %f" none.profiled_percent
         mapping.profiled_percent unrolling.profiled_percent)
      true
      (none.profiled_percent <= mapping.profiled_percent
      && mapping.profiled_percent <= unrolling.profiled_percent +. 0.001);
    Alcotest.(check bool) "baseline small" true (none.profiled_percent < 40.0);
    Alcotest.(check bool) "final large" true (unrolling.profiled_percent > 80.0)
  | _ -> Alcotest.fail "expected three rows"

let test_block_ablation_rows () =
  let rows =
    Bhive.Ablation.block_ablation ~engine Corpus.Paper_blocks.tensorflow_ablation
  in
  Alcotest.(check int) "five rows" 5 (List.length rows);
  (match rows with
  | first :: rest ->
    Alcotest.(check string) "first crashes" "Crashed" first.measured;
    List.iter
      (fun (r : Bhive.Ablation.block_row) ->
        Alcotest.(check bool) "later rows measure" true (r.measured <> "Crashed"))
      rest
  | [] -> Alcotest.fail "no rows");
  (* measured value decreases down the table *)
  let values =
    List.filter_map
      (fun (r : Bhive.Ablation.block_row) -> float_of_string_opt r.measured)
      rows
  in
  let rec decreasing = function
    | a :: b :: rest -> a >= b -. 0.001 && decreasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone decreasing" true (decreasing values)

let test_by_length_buckets () =
  let ds = Lazy.force hsw_dataset in
  let evals = Bhive.Validation.evaluate_all ~engine ds in
  let rows = Bhive.Validation.by_length (List.hd evals) in
  Alcotest.(check int) "five buckets" 5 (List.length rows);
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 rows in
  Alcotest.(check int) "buckets partition samples"
    (List.length (List.hd evals).samples)
    total

let test_report_renders () =
  (* all report functions produce non-empty output without raising *)
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let ds = Lazy.force hsw_dataset in
  let evals = Bhive.Validation.evaluate_all ~engine ds in
  Bhive.Report.overall_error fmt [ ("Haswell", evals) ];
  Bhive.Report.applications fmt (Lazy.force blocks);
  Bhive.Report.per_app_error fmt ~uarch:"hsw" evals;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "output" true (Buffer.length buf > 100)

let suite =
  [
    Alcotest.test_case "dataset builds" `Quick test_dataset_builds;
    Alcotest.test_case "avx2 exclusion" `Quick test_avx2_exclusion;
    Alcotest.test_case "split partition" `Quick test_split_deterministic_partition;
    Alcotest.test_case "validation runs" `Quick test_validation_runs;
    Alcotest.test_case "model ordering" `Quick test_model_ordering;
    Alcotest.test_case "by-app breakdown" `Quick test_by_app_breakdown;
    Alcotest.test_case "suite ablation monotone" `Quick test_suite_ablation_monotone;
    Alcotest.test_case "block ablation rows" `Quick test_block_ablation_rows;
    Alcotest.test_case "by-length buckets" `Quick test_by_length_buckets;
    Alcotest.test_case "report renders" `Quick test_report_renders;
  ]
