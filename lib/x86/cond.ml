(** x86 condition codes, as used by Jcc / CMOVcc / SETcc. *)

type t =
  | O   (** overflow *)
  | NO
  | B_  (** below (CF=1); underscore avoids clash with byte width *)
  | AE
  | E
  | NE
  | BE
  | A
  | S
  | NS
  | P
  | NP
  | L
  | GE
  | LE
  | G

let all = [ O; NO; B_; AE; E; NE; BE; A; S; NS; P; NP; L; GE; LE; G ]

let to_string = function
  | O -> "o"
  | NO -> "no"
  | B_ -> "b"
  | AE -> "ae"
  | E -> "e"
  | NE -> "ne"
  | BE -> "be"
  | A -> "a"
  | S -> "s"
  | NS -> "ns"
  | P -> "p"
  | NP -> "np"
  | L -> "l"
  | GE -> "ge"
  | LE -> "le"
  | G -> "g"

(* Evaluate the condition against flag values. *)
let eval t ~cf ~zf ~sf ~of_ ~pf =
  match t with
  | O -> of_
  | NO -> not of_
  | B_ -> cf
  | AE -> not cf
  | E -> zf
  | NE -> not zf
  | BE -> cf || zf
  | A -> not (cf || zf)
  | S -> sf
  | NS -> not sf
  | P -> pf
  | NP -> not pf
  | L -> sf <> of_
  | GE -> sf = of_
  | LE -> zf || sf <> of_
  | G -> not zf && sf = of_
