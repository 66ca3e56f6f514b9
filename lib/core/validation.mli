(** Model validation: predictions vs ground truth, aggregated overall,
    per application, and per LDA category. *)

type sample = {
  entry : Dataset.entry;
  predicted : float;
}

type eval = {
  model : string;
  uarch : string;
  samples : sample list;
  unsupported : int;  (** blocks the model failed to analyse *)
  average_error : float;  (** unweighted mean relative error (Table V) *)
  weighted_error : float;  (** frequency-weighted (Table VII) *)
  kendall_tau : float;
}

val error_of : sample -> float

(** Evaluate one model over explicit dataset entries. *)
val evaluate_entries :
  Uarch.Descriptor.t -> Models.Model_intf.t -> Dataset.entry list -> eval

(** Frequency-weighted error per source application (the per-application
    figures). *)
val by_app : eval -> (string * float) list

(** Unweighted error per block category (the per-cluster figures). *)
val by_category :
  Classify.Categories.t -> eval -> (Classify.Categories.label * float) list

(** Average error per block-length bucket (bucket name, error, count) —
    the error-vs-length analysis the paper leaves as an open TODO. *)
val by_length : eval -> (string * float * int) list

(** The paper's four models for this dataset's microarchitecture; the
    learned model is trained on the dataset's training split, whose
    ground truth is re-profiled through [engine] (memo-cache hits when
    the same engine built the dataset), and the returned entries are
    the held-out evaluation set. *)
val standard_models :
  ?train_fraction:float ->
  engine:Engine.t ->
  Dataset.t ->
  Models.Model_intf.t list * Dataset.entry list

(** All four models evaluated on the held-out entries (Table V rows);
    both splits' ground truth is re-profiled through [engine]. *)
val evaluate_all : ?train_fraction:float -> engine:Engine.t -> Dataset.t -> eval list
