(** Straight-line block execution over the architectural semantics.

    Runs an instruction sequence once, or several copies of it back to
    back (basic blocks contain no control flow), collecting every memory
    access and event. On a memory fault the
    partial trace up to the fault is reported together with the fault —
    exactly the observability the BHive monitor process gets from a
    SIGSEGV. *)

open X86

(* One executed instruction and what it did. *)
type step = {
  index : int;  (** dynamic index within the run *)
  inst : Inst.t;
  accesses : Memsim.Mmu.access list;
  events : Semantics.event list;
}

type run_result =
  | Completed of step list
  | Faulted of {
      steps : step list;  (** steps completed before the fault *)
      fault : Memsim.Fault.t;
      at : int;  (** index of the faulting instruction *)
    }

(* Execute [unroll] copies of [insts] laid out back to back: dynamic
   instruction [idx] is block instruction [idx mod n], and RIP advances
   by its encoded length, computed once per block instruction. *)
let run_unrolled (st : Machine_state.t) (mmu : Memsim.Mmu.t) (insts : Inst.t list)
    ~unroll : run_result =
  let block = Array.of_list insts in
  let lengths = Array.map Encoder.encoded_length block in
  let n = Array.length block in
  let total = n * unroll in
  let rec go idx steps =
    if idx >= total then Completed (List.rev steps)
    else
      let k = idx mod n in
      let inst = block.(k) in
      st.rip <- Int64.add st.rip (Int64.of_int lengths.(k));
      match Semantics.exec st mmu inst with
      | outcome ->
        go (idx + 1)
          ({ index = idx; inst; accesses = outcome.accesses; events = outcome.events }
          :: steps)
      | exception Memsim.Fault.Fault f ->
        Faulted { steps = List.rev steps; fault = f; at = idx }
  in
  go 0 []

let run st mmu insts = run_unrolled st mmu insts ~unroll:1

let all_accesses = function
  | Completed steps -> List.concat_map (fun s -> s.accesses) steps
  | Faulted { steps; _ } -> List.concat_map (fun s -> s.accesses) steps

let all_events = function
  | Completed steps -> List.concat_map (fun s -> s.events) steps
  | Faulted { steps; _ } -> List.concat_map (fun s -> s.events) steps

let completed = function Completed _ -> true | Faulted _ -> false
