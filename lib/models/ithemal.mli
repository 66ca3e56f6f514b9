(** Ithemal-like learned throughput predictor: a feature-hashed
    regressor trained with normalised LMS on the measured dataset,
    optimised for relative error. Like the real Ithemal it outputs a
    single number per block with no interpretable schedule. *)

type t

val predict_block : t -> X86.Inst.t list -> float

(** Train on (block, measured throughput) pairs; deterministic. *)
val train :
  ?epochs:int -> ?lr:float -> (X86.Inst.t list * float) list -> t

val create : t -> Model_intf.t
