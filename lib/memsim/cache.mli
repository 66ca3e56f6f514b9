(** Set-associative cache model with true-LRU replacement, physically
    indexed and tagged. For 32 KiB / 8-way / 64 B lines the index bits
    lie inside the page offset, making the model behaviourally identical
    to Intel's VIPT L1 — the property BHive's single-physical-page
    aliasing exploits. *)

type t

val create : size_bytes:int -> ways:int -> line_bytes:int -> t

(** Standard Intel L1: 32 KiB, 8-way, 64-byte lines. *)
val l1_default : unit -> t

(** Access one line by index; returns [true] on hit. *)
val access_line : t -> int -> bool

(** Access [size] bytes at physical address [addr] (a native int, as
    the step log records it); returns the number of line misses (0-2:
    an access crossing a line boundary touches two lines). *)
val access : t -> addr:int -> size:int -> int

(** Does this access cross a cache-line boundary (the event counted by
    MISALIGNED_MEM_REFERENCE)? *)
val crosses_line : t -> addr:int -> size:int -> bool

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit

(** Invalidate all lines and reset statistics. *)
val flush : t -> unit
