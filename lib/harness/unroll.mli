(** Unroll-factor selection and throughput derivation. *)

type factors = {
  large : int;
  small : int;  (** 0 under the naive strategy *)
}

(** Choose factors for a block under the given strategy; the adaptive
    strategy scales them to the instruction-cache code budget. *)
val choose : Environment.unroll_strategy -> X86.Inst.t list -> factors

(** cycles(large)/large under the naive strategy, otherwise the
    two-point delta (cycles(large) - cycles(small)) / (large - small). *)
val throughput : factors -> cycles_large:int -> cycles_small:int -> float
