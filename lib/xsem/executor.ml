(** Straight-line block execution over the architectural semantics.

    Runs an instruction sequence once, or several copies of it back to
    back (basic blocks contain no control flow), recording every memory
    access and event into a {!Step_log}. On a memory fault the log up
    to the fault is reported together with the fault — exactly the
    observability the BHive monitor process gets from a SIGSEGV. *)

open X86

type run_result =
  | Completed of Step_log.t
  | Faulted of {
      steps : Step_log.t;  (** the steps completed before the fault *)
      fault : Memsim.Fault.t;
      at : int;  (** index of the faulting instruction *)
    }

(* Execute [unroll] copies of [insts] laid out back to back: dynamic
   instruction [idx] is block instruction [idx mod n], and RIP advances
   by its encoded length, computed once per block instruction. One
   context serves the whole run, and each step is a commit to the log;
   a faulting instruction's recorded accesses are rolled back. *)
let run_unrolled ?log (st : Machine_state.t) (mmu : Memsim.Mmu.t)
    (insts : Inst.t list) ~unroll : run_result =
  let block = Array.of_list insts in
  let lengths = Array.map Encoder.encoded_length block in
  let n = Array.length block in
  let total = n * unroll in
  let log = match log with Some log -> log | None -> Step_log.create ~steps:total in
  Step_log.start log block;
  let ctx = Semantics.context st mmu log in
  let rec go idx k =
    if idx >= total then Completed log
    else begin
      st.rip <- Int64.add st.rip (Int64.of_int lengths.(k));
      match Semantics.exec ctx block.(k) with
      | () ->
        Step_log.commit log;
        go (idx + 1) (if k + 1 = n then 0 else k + 1)
      | exception Memsim.Fault.Fault f ->
        Step_log.rollback log;
        Faulted { steps = log; fault = f; at = idx }
    end
  in
  go 0 0

let run st mmu insts = run_unrolled st mmu insts ~unroll:1

let completed = function Completed _ -> true | Faulted _ -> false
