(* Canonical binary encoding helpers shared by the segment format and
   the stable-fingerprint builders in lib/engine. All multi-byte
   integers are little-endian and fixed-width so the same value always
   encodes to the same bytes regardless of host word size. *)

let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let u16 buf v =
  u8 buf v;
  u8 buf (v lsr 8)

let u32 buf v =
  u16 buf v;
  u16 buf (v lsr 16)

let i64 buf (v : int64) =
  for i = 0 to 7 do
    u8 buf (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

(* OCaml ints are 63-bit on 64-bit hosts; widen to a fixed 64 bits. *)
let int buf v = i64 buf (Int64.of_int v)
let bool buf b = u8 buf (if b then 1 else 0)

(* Bit-exact: NaN payloads and signed zeros distinguish, which is what
   a fingerprint wants. *)
let float buf f = i64 buf (Int64.bits_of_float f)
let int32 buf (v : int32) = i64 buf (Int64.of_int32 v)

let str buf s =
  u32 buf (String.length s);
  Buffer.add_string buf s

let bytes buf b = str buf (Bytes.to_string b)

let option buf enc = function
  | None -> u8 buf 0
  | Some v ->
    u8 buf 1;
    enc buf v

let list buf enc xs =
  u32 buf (List.length xs);
  List.iter (fun x -> enc buf x) xs

(* --- readers (segment scan) --- *)

let get_u8 b off = Char.code (Bytes.get b off)
let get_u16 b off = get_u8 b off lor (get_u8 b (off + 1) lsl 8)
let get_u32 b off = get_u16 b off lor (get_u16 b (off + 2) lsl 16)

let get_i64 b off =
  let r = ref 0L in
  for i = 7 downto 0 do
    r := Int64.logor (Int64.shift_left !r 8) (Int64.of_int (get_u8 b (off + i)))
  done;
  !r

(* --- FNV-1a 64-bit, used as the per-record checksum. Cheap enough to
   run on every append and every open-time scan; torn or bit-flipped
   tail records fail it and are truncated rather than served. --- *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv1a64 ?(h0 = fnv_offset) s =
  let h = ref h0 in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let fnv1a64_bytes ?(h0 = fnv_offset) ~off ~len b =
  let h = ref h0 in
  for i = off to off + len - 1 do
    h :=
      Int64.mul (Int64.logxor !h (Int64.of_int (get_u8 b i))) fnv_prime
  done;
  !h

(* --- hex, for export/import payloads --- *)

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let out = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      match (nibble s.[2 * i], nibble s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set out i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some (Bytes.unsafe_to_string out) else None
