(** Cycle-level pipeline simulation: trace construction, the
    out-of-order core model, machine state, and batched entry points. *)

module Core = Core
module Counters = Counters
module Machine = Machine
module Trace = Trace

(** Simulate many independent blocks under the calling domain's reused
    machine for [d], each from cold caches: [Machine.reset] restores a
    newly created machine's cache state and {!Core.Scratch} resets by
    epoch bump, so results are byte-identical to per-block
    [Machine.create] + [Machine.run]. *)
let simulate_batch ?record_schedule (d : Uarch.Descriptor.t)
    (steps_list : Xsem.Step_log.t list) : Core.result list =
  let m = Machine.for_descriptor d in
  List.map
    (fun steps ->
      Machine.reset m;
      Machine.run ?record_schedule m steps)
    steps_list
