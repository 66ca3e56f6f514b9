(** Latent Dirichlet Allocation by collapsed Gibbs sampling, matching
    the paper's configuration (6 topics, alpha = 1/6, beta = 1/13). *)

type config = {
  topics : int;
  alpha : float;
  beta : float;
  iterations : int;
  seed : int64;
}

type model = {
  config : config;
  vocab_size : int;
  doc_topic : int array array;  (** per-document topic counts *)
  topic_word : int array array;  (** per-topic vocabulary counts *)
  topic_total : int array;
  assignments : int array array;  (** topic of every token *)
}

(** Fit on documents given as vocabulary-index arrays; deterministic in
    the config seed. *)
val fit : ?config:config -> vocab_size:int -> int array array -> model

(** Smoothed topic-word probability phi_k(w); sums to 1 over the
    vocabulary for each topic. *)
val phi : model -> int -> int -> float

(** Dominant topic of a fitted document (the paper's block category =
    most common category among its micro-ops). *)
val doc_category : model -> int -> int

(** Fold-in inference for an unseen document. *)
val infer : model -> int array -> int
