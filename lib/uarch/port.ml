(** Execution ports and port combinations.

    A port combination (e.g. Abel and Reineke's "p0156") is the set of
    ports a micro-op may issue to; it is represented as a bit mask. *)

type t = int  (** single port number, 0-based *)

type set = int  (** bit mask of candidate ports *)

let empty : set = 0
let singleton (p : t) : set = 1 lsl p
let union (a : set) (b : set) : set = a lor b
let mem (p : t) (s : set) = s land (1 lsl p) <> 0
let is_empty (s : set) = s = 0

let of_list ps = List.fold_left (fun acc p -> union acc (singleton p)) empty ps

let to_list (s : set) : t list =
  let rec go p acc =
    if p < 0 then acc
    else go (p - 1) (if mem p s then p :: acc else acc)
  in
  go 15 []

let cardinal s = List.length (to_list s)

(* Abel-and-Reineke-style name: p0156. *)
let name (s : set) =
  if is_empty s then "none"
  else "p" ^ String.concat "" (List.map string_of_int (to_list s))

let equal (a : set) b = a = b

(* Common combinations (Haswell/Skylake port numbering). *)
let p0 = singleton 0
let p1 = singleton 1
let p2 = singleton 2
let p3 = singleton 3
let p4 = singleton 4
let p5 = singleton 5
let p6 = singleton 6
let p7 = singleton 7
let p01 = of_list [ 0; 1 ]
let p05 = of_list [ 0; 5 ]
let p06 = of_list [ 0; 6 ]
let p15 = of_list [ 1; 5 ]
let p015 = of_list [ 0; 1; 5 ]
let p0156 = of_list [ 0; 1; 5; 6 ]
let p23 = of_list [ 2; 3 ]
let p237 = of_list [ 2; 3; 7 ]
