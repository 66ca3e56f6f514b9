(** Model validation: predict every dataset entry with every model and
    aggregate errors overall, per application, and per block category. *)

type sample = {
  entry : Dataset.entry;
  predicted : float;
}

type eval = {
  model : string;
  uarch : string;
  samples : sample list;
  unsupported : int;  (** blocks the model failed on *)
  average_error : float;
  weighted_error : float;
  kendall_tau : float;
}

let error_of (s : sample) =
  Bstats.Error.relative ~predicted:s.predicted ~measured:s.entry.throughput

(* Evaluate one model over dataset entries. *)
let evaluate_entries (uarch : Uarch.Descriptor.t) (model : Models.Model_intf.t)
    (entries : Dataset.entry list) : eval =
  let samples = ref [] in
  let unsupported = ref 0 in
  List.iter
    (fun (e : Dataset.entry) ->
      match model.predict e.block.insts with
      | Models.Model_intf.Throughput tp when Float.is_finite tp && tp > 0.0 ->
        samples := { entry = e; predicted = tp } :: !samples
      | Models.Model_intf.Throughput _ -> incr unsupported
      | Models.Model_intf.Unsupported _ -> incr unsupported)
    entries;
  let samples = List.rev !samples in
  let pairs = List.map (fun s -> (s.predicted, s.entry.throughput)) samples in
  let triples =
    List.map
      (fun s -> (s.predicted, s.entry.throughput, float_of_int s.entry.block.freq))
      samples
  in
  {
    model = model.name;
    uarch = uarch.short;
    samples;
    unsupported = !unsupported;
    average_error = Bstats.Error.average_relative pairs;
    weighted_error = Bstats.Error.weighted_relative triples;
    kendall_tau = Bstats.Kendall.tau pairs;
  }

(* Per-application breakdown (frequency-weighted, per the paper's
   per-application figures). *)
let by_app (e : eval) : (string * float) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let app = s.entry.block.app in
      let w = float_of_int s.entry.block.freq in
      let num, den =
        Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl app)
      in
      Hashtbl.replace tbl app (num +. (w *. error_of s), den +. w))
    e.samples;
  Hashtbl.fold
    (fun app (num, den) acc -> (app, if den > 0.0 then num /. den else nan) :: acc)
    tbl []
  |> List.sort compare

(* Per-category breakdown (unweighted, per the per-cluster figures). *)
let by_category (cls : Classify.Categories.t) (e : eval) :
    (Classify.Categories.label * float) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = Classify.Categories.classify cls s.entry.block in
      let errs = Option.value ~default:[] (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l (error_of s :: errs))
    e.samples;
  List.map
    (fun l ->
      (l, Bstats.Error.average (Option.value ~default:[] (Hashtbl.find_opt tbl l))))
    Classify.Categories.all_labels

(* Length buckets for the error-vs-block-size analysis (a TODO the paper
   leaves open: "compare error to basic block length and show [the
   learned model] does not generalize to large basic blocks"). *)
let length_buckets = [ (1, 3); (4, 7); (8, 15); (16, 31); (32, 1000) ]

let bucket_name (lo, hi) =
  if hi >= 1000 then Printf.sprintf "%d+" lo else Printf.sprintf "%d-%d" lo hi

let by_length (e : eval) : (string * float * int) list =
  List.map
    (fun (lo, hi) ->
      let errs =
        List.filter_map
          (fun s ->
            let n = Corpus.Block.length s.entry.block in
            if n >= lo && n <= hi then Some (error_of s) else None)
          e.samples
      in
      (bucket_name (lo, hi), Bstats.Error.average errs, List.length errs))
    length_buckets

(* Ground truth for a split, re-derived through the engine: when the
   same engine built the dataset this is pure memo-cache hits; with a
   fresh engine it is an independent re-measurement, which the
   profiler's determinism guarantees agrees bit-for-bit with the
   stored value. *)
let ground_truth ~engine (dataset : Dataset.t) (entries : Dataset.entry list) :
    (X86.Inst.t list * float) list =
  let { Engine.outcomes; _ } =
    Engine.run_batch engine
      (List.map
         (fun (e : Dataset.entry) ->
           { Engine.env = dataset.env; uarch = dataset.uarch; block = e.block.insts })
         entries)
  in
  List.mapi
    (fun i (e : Dataset.entry) ->
      match Harness.Profiler.accepted_throughput outcomes.(i) with
      | Some tp -> (e.block.insts, tp)
      | None -> (e.block.insts, e.throughput))
    entries

(** The paper's four models, instantiated for a dataset's uarch; the
    learned model is trained on the dataset's training split. *)
let standard_models ?(train_fraction = 0.85) ~engine (dataset : Dataset.t) :
    Models.Model_intf.t list * Dataset.entry list =
  let train, eval_entries = Dataset.split ~train_fraction dataset in
  let trained = Models.Ithemal.train (ground_truth ~engine dataset train) in
  ( [
      Models.Iaca.create dataset.uarch;
      Models.Llvm_mca.create dataset.uarch;
      Models.Ithemal.create trained;
      Models.Osaca.create dataset.uarch;
    ],
    eval_entries )

(* Full Table-"overall" style evaluation of one dataset: all four models
   on the held-out entries. *)
let evaluate_all ?train_fraction ~engine (dataset : Dataset.t) : eval list =
  let models, entries = standard_models ?train_fraction ~engine dataset in
  (* evaluate against engine-derived ground truth (identical to the
     stored values by determinism; keeps the split cache-resident) *)
  let entries =
    List.map2
      (fun (e : Dataset.entry) (_, tp) -> { e with throughput = tp })
      entries
      (ground_truth ~engine dataset entries)
  in
  List.map (fun m -> evaluate_entries dataset.uarch m entries) models
