(** OSACA-like analyzer: a port-pressure bound with no dependency
    modelling, plus the two reported parser bug classes (imm-to-memory
    forms treated as nops; several instruction forms rejected
    entirely). *)

val create : Uarch.Descriptor.t -> Model_intf.t
