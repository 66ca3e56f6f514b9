(** Deterministic, seed-keyed perturbation of performance-model tables.

    One shared noise source for two consumers: the static analyzer
    models perturb their per-opcode tables (modelling real analyzers'
    table errors), and [lib/refine]'s [--perturb] deliberately breaks
    descriptor entries for the repair loop to recover. All draws are
    pure functions of (seed, entry name): same seed, same noise, on any
    host and in any order.

    The [_named] combinators key on an arbitrary entry-name string; the
    opcode versions are wrappers over the mnemonic and produce
    bit-equal draws. *)

val hash_name : seed:int64 -> string -> int64
(** Stable 64-bit draw for a named table entry under a model seed. *)

val hash : seed:int64 -> X86.Opcode.t -> int64

val latency_named :
  seed:int64 -> fraction:float -> amplitude:float -> string -> int -> int
(** Perturbed latency: a [fraction] of entries are off by up to
    [amplitude] (relative), half low, half high, never below 1. *)

val latency :
  seed:int64 -> fraction:float -> amplitude:float -> X86.Opcode.t -> int -> int

val scale :
  seed:int64 -> fraction:float -> amplitude:float -> X86.Opcode.t -> float
(** Multiplicative cost scale in [1-amplitude/2, 1+amplitude] for
    fractional reciprocal-throughput tables; 1.0 for unperturbed
    entries. *)

val extra_uop : seed:int64 -> fraction:float -> X86.Opcode.t -> bool
(** Whether the table charges an extra micro-op for the entry. *)

val drop_port_named :
  seed:int64 -> fraction:float -> string -> Uarch.Port.set -> Uarch.Port.set
(** Drop one of the entry's alternative ports (incomplete port
    mapping); port sets of one port are left untouched. *)

val drop_port :
  seed:int64 -> fraction:float -> X86.Opcode.t -> Uarch.Port.set -> Uarch.Port.set
