(** Memory faults raised by the simulated MMU, mirroring the signals a
    real profiled process would receive. *)

type t =
  | Segfault of int64  (** access to an unmapped virtual address *)
  | Non_canonical of int64
      (** address outside the 47-bit user-space range; cannot be mapped *)

exception Fault of t

let address = function Segfault a | Non_canonical a -> a

let pp fmt = function
  | Segfault a -> Format.fprintf fmt "SIGSEGV at 0x%Lx" a
  | Non_canonical a -> Format.fprintf fmt "non-canonical address 0x%Lx" a

let to_string t = Format.asprintf "%a" pp t

(* User-space mappable range check, as performed by the BHive monitor
   before attempting an mmap: the zero page is never mappable and the
   address must fit in the 47-bit positive user-space half. The range
   is [page_size, end_of_user), page-aligned at both ends. *)
let page_size = 4096
let page_bits = 12
let end_of_user = 0x7FFF_FFFF_F000

let is_valid_address addr =
  Int64.compare addr (Int64.of_int page_size) >= 0
  && Int64.compare addr (Int64.of_int end_of_user) < 0

let page_of_address addr = Int64.shift_right_logical addr page_bits
let address_of_page page = Int64.shift_left page page_bits
let offset_in_page addr = Int64.to_int (Int64.logand addr 0xFFFL)
