(** Unroll-factor selection.

    The naive strategy uses one large factor (typically 100) and divides
    by it; for large basic blocks the unrolled code overflows the L1
    instruction cache and the measurement is rejected by the clean-run
    filter. The two-point strategy measures two factors and uses the
    cycle delta, which stays accurate with much smaller factors; the
    adaptive variant scales the factors to an instruction-cache budget. *)

open X86

type factors = {
  large : int;
  small : int;  (** 0 under the naive strategy *)
}

let minimum_factor = 4

let choose (strategy : Environment.unroll_strategy) (block : Inst.t list) :
    factors =
  match strategy with
  | Environment.Naive u -> { large = Int.max 1 u; small = 0 }
  | Environment.Two_point { large; small } ->
    if large <= small then invalid_arg "Unroll.choose: large <= small";
    { large; small = Int.max 1 small }
  | Environment.Adaptive_two_point { code_budget_bytes } ->
    let bytes = Int.max 1 (Encoder.block_length block) in
    let fit = code_budget_bytes / bytes in
    let large = Int.max minimum_factor (Int.min 100 fit) in
    let small = Int.max (minimum_factor / 2) (large / 2) in
    let small = if small >= large then large - 1 else small in
    { large; small = Int.max 1 small }

(* Derive throughput from the measured cycle counts. *)
let throughput (f : factors) ~cycles_large ~cycles_small =
  if f.small = 0 then float_of_int cycles_large /. float_of_int f.large
  else
    float_of_int (cycles_large - cycles_small)
    /. float_of_int (f.large - f.small)
