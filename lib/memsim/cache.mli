(** Set-associative cache model with true-LRU replacement, physically
    indexed and tagged. For 32 KiB / 8-way / 64 B lines the index bits
    lie inside the page offset, making the model behaviourally identical
    to Intel's VIPT L1 — the property BHive's single-physical-page
    aliasing exploits.

    The set count and the line size are powers of two, so a lookup
    finds an address's line by a shift and the line's set by a mask.
    Before searching the set, a lookup probes the slot the previous
    access touched; a line sits in one slot of its own set, so the probe
    finds only the hit the search would find. Accesses allocate
    nothing. *)

type t

(** A cache of [size_bytes] in [ways]-way sets of [line_bytes] lines.
    Raises [Invalid_argument] unless [size_bytes] divides into
    [ways * line_bytes] lines and both the resulting set count and
    [line_bytes] are powers of two. *)
val create : size_bytes:int -> ways:int -> line_bytes:int -> t

(** Standard Intel L1: 32 KiB, 8-way, 64-byte lines. *)
val l1_default : unit -> t

(** Access one line by index (a non-negative int); returns [true] on
    hit. *)
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

(** Misses that replaced a valid line. A miss fills an invalid way of
    its set before it evicts a valid one, so from a flush this stays 0
    for as long as no set has received more distinct lines than it has
    ways. *)
val evictions : t -> int

(** Zero the hit, miss and eviction counts. *)
val reset_stats : t -> unit

(** Invalidate all lines and zero the hit, miss and eviction counts. *)
val flush : t -> unit
