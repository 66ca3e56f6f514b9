(** IACA-like analyzer: knows Intel's private optimisations
    (micro-fusion, zero idioms, move elimination) but carries the
    documented division-table bug and a modest level of per-opcode table
    error. *)

val create : Uarch.Descriptor.t -> Model_intf.t
