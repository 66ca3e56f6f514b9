(** Straight-line block execution over the compiled semantics.

    Runs an instruction sequence once, or several copies of it back to
    back (basic blocks contain no control flow), recording every memory
    access and event into a {!Step_log}. On a memory fault the log up
    to the fault is reported together with the fault — exactly the
    observability the BHive monitor process gets from a SIGSEGV. *)

type run_result =
  | Completed of Step_log.t
  | Faulted of {
      steps : Step_log.t;  (** the steps completed before the fault *)
      fault : Memsim.Fault.t;
      at : int;  (** index of the faulting instruction *)
    }

(* Execute [unroll] copies of [insts] laid out back to back: dynamic
   instruction [idx] is block instruction [idx mod n]. The block is
   compiled once per call; RIP advances by each instruction's encoded
   length before it runs. One context serves the whole run, and each
   step is a commit to the log; a faulting instruction's recorded
   accesses are rolled back. *)
let run_unrolled ?log (st : Machine_state.t) (mmu : Memsim.Mmu.t)
    (insts : X86.Inst.t list) ~unroll : run_result =
  let block = Array.of_list insts in
  let compiled = Compile.block block in
  let total = Array.length block * unroll in
  let log = match log with Some log -> log | None -> Step_log.create ~steps:total in
  Step_log.start log block;
  let c = Compile.context st mmu log in
  let idx = ref 0 in
  match Compile.run compiled c idx total with
  | () ->
    Compile.finish c st;
    Completed log
  | exception Memsim.Fault.Fault f ->
    Step_log.rollback log;
    Compile.finish c st;
    Faulted { steps = log; fault = f; at = !idx }

let run st mmu insts = run_unrolled st mmu insts ~unroll:1

let completed = function Completed _ -> true | Faulted _ -> false
