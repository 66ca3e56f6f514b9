(** Integer operation widths for x86-64 general-purpose operations. *)

type t =
  | B  (** 8-bit *)
  | W  (** 16-bit *)
  | D  (** 32-bit *)
  | Q  (** 64-bit *)

let bytes = function B -> 1 | W -> 2 | D -> 4 | Q -> 8
let bits t = 8 * bytes t

let of_bytes = function
  | 1 -> B
  | 2 -> W
  | 4 -> D
  | 8 -> Q
  | n -> invalid_arg (Printf.sprintf "Width.of_bytes: %d" n)

(* AT&T mnemonic suffix for this width. *)
let suffix = function B -> "b" | W -> "w" | D -> "l" | Q -> "q"

let to_string = function B -> "B" | W -> "W" | D -> "D" | Q -> "Q"
let equal (a : t) b = a = b

(* Mask keeping only the low [bits t] bits of a 64-bit value. *)
let mask = function
  | B -> 0xFFL
  | W -> 0xFFFFL
  | D -> 0xFFFFFFFFL
  | Q -> 0xFFFFFFFFFFFFFFFFL

(* Truncate a 64-bit value to this width (zero-extending semantics). *)
let truncate t v = Int64.logand v (mask t)

(* Sign-extend the low [bits t] bits of [v] to 64 bits. *)
let sign_extend t v =
  match t with
  | Q -> v
  | _ ->
    let shift = 64 - bits t in
    Int64.shift_right (Int64.shift_left v shift) shift

let all = [ B; W; D; Q ]
