(** Basic-block categories: LDA topics over micro-op port-combination
    tokens, automatically labelled against the six descriptions of the
    paper's category table. *)

type label =
  | Scalar_vector_mix  (** Category-1: mix of scalar and vectorised arithmetic *)
  | Pure_vector  (** Category-2: purely vector instructions *)
  | Load_store_mix  (** Category-3: mix of loads and stores *)
  | Mostly_stores  (** Category-4 *)
  | Alu_with_memory  (** Category-5: ALU ops sprinkled with loads and stores *)
  | Mostly_loads  (** Category-6 *)

val all_labels : label list
val label_number : label -> int
val label_name : label -> string
val label_description : label -> string

(** Micro-op resource shares used for topic labelling. *)
type shares = {
  load : float;
  store : float;
  scalar : float;
  vector : float;
}

(** A fitted classifier. *)
type t = {
  descriptor : Uarch.Descriptor.t;
  vocab : Features.vocab;
  model : Lda.model;
  labels : label array;  (** per-topic labels *)
  block_labels : (string, label) Hashtbl.t;  (** by block id *)
}

(** Fit LDA (collapsed Gibbs; deterministic in the config seed) and label
    its topics. The default configuration is the paper's: 6 topics,
    alpha = 1/6, beta = 1/13. *)
val fit :
  ?descriptor:Uarch.Descriptor.t -> ?config:Lda.config -> Corpus.Block.t list -> t

(** Category of a block: most common micro-op topic for fitted blocks,
    fold-in inference for unseen ones. *)
val classify : t -> Corpus.Block.t -> label

(** Block count per category (the paper's category table). *)
val category_counts : t -> Corpus.Block.t list -> (label * int) list

(** A representative block per category (the examples figure). *)
val exemplars : t -> Corpus.Block.t list -> (label * Corpus.Block.t) list
