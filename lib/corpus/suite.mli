(** Assembly of the full benchmark suite at a configurable scale,
    deterministic in the seed. *)

type config = {
  scale : int;  (** divide the paper's block counts by this factor *)
  seed : int64;
}

val default_config : config

(** Read the scale from the BHIVE_SCALE environment variable. *)
val config_from_env : unit -> config

(** The nine-application suite of the paper's Table "apps". *)
val generate : ?config:config -> unit -> Block.t list

(** Suite plus OpenSSL (used by the per-application error figures). *)
val generate_extended : ?config:config -> unit -> Block.t list

(** The Spanner/Dremel case-study corpora. *)
val generate_google : ?config:config -> unit -> Block.t list

val count_by_app : Block.t list -> (string * int) list
