(** Straight-line execution of basic blocks over the architectural
    semantics, with full observability of memory accesses, events, and
    faults. A run records into a {!Step_log}: one context per run, no
    per-step record, and a faulting instruction's accesses are rolled
    back, so the log holds exactly the completed steps. *)

type run_result =
  | Completed of Step_log.t
  | Faulted of {
      steps : Step_log.t;  (** the steps completed before the fault *)
      fault : Memsim.Fault.t;
      at : int;  (** index of the faulting instruction *)
    }

(** Execute the instruction list once, mutating [state] and memory. *)
val run :
  Machine_state.t -> Memsim.Mmu.t -> X86.Inst.t list -> run_result

(** Execute [unroll] consecutive copies of the block. Each block
    instruction's encoded length, by which RIP advances, is computed once
    per call. The run records into a fresh log, or into [log], which is
    emptied first and then belongs to the result. *)
val run_unrolled :
  ?log:Step_log.t ->
  Machine_state.t -> Memsim.Mmu.t -> X86.Inst.t list -> unroll:int -> run_result

val completed : run_result -> bool
