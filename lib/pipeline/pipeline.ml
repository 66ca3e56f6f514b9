(** Cycle-level pipeline simulation: trace construction, the
    out-of-order core model and machine state. *)

module Core = Core
module Counters = Counters
module Machine = Machine
module Trace = Trace
