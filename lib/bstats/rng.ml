(** Deterministic pseudo-random number generation (SplitMix64).

    Everything in the benchmark suite that needs randomness (corpus
    generation, noise injection, LDA initialisation) derives from seeded
    instances of this generator so that runs are exactly reproducible. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

let next_u64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 t) 1) (Int64.of_int bound))

let float t =
  (* 53 random bits into [0,1) *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) in
  bits /. 9007199254740992.0

(* Bernoulli trial with probability [p]. *)
let bernoulli t p = float t < p

(* Pick uniformly from a non-empty list. *)
let choose t xs =
  match xs with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth xs (int t (List.length xs))

(* Pick from weighted choices. *)
let choose_weighted t (xs : (float * 'a) list) =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 xs in
  if total <= 0.0 then invalid_arg "Rng.choose_weighted: zero total weight";
  let target = float t *. total in
  let rec go acc = function
    | [] -> snd (List.hd (List.rev xs))
    | (w, x) :: rest -> if acc +. w >= target then x else go (acc +. w) rest
  in
  go 0.0 xs

(* Derive a seed from a string (FNV-1a), for per-block determinism.
   The accumulator is a local of the loop, so it stays unboxed. *)
let seed_of_string s =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001B3L
  done;
  !h
