(** Deterministic pseudo-random number generation (SplitMix64). All
    randomness in the suite derives from seeded instances, making every
    run exactly reproducible. *)

type t

val create : int64 -> t

val next_u64 : t -> int64

(** Uniform integer in [0, bound); raises on non-positive bounds. *)
val int : t -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

(** Bernoulli trial with success probability [p]. *)
val bernoulli : t -> float -> bool

(** Uniform choice from a non-empty list. *)
val choose : t -> 'a list -> 'a

(** Weighted choice; weights must sum to a positive value. *)
val choose_weighted : t -> (float * 'a) list -> 'a

(** FNV-1a hash of a string, for deriving per-item seeds. *)
val seed_of_string : string -> int64
