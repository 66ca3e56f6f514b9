(** The block compiler behind {!Executor}: each instruction becomes a
    closure over a run context, with its operands resolved once, so that
    a step is one closure call on unboxed state (a byte register file,
    RIP in an unboxed slot, addresses handed to the MMU as native ints).
    A compiled run records exactly what the reference interpreter in
    [test/semantics.ml] records, in the same order. *)

(** One run's state: the machine state's register files, the memory
    and log the run acts on, RIP, and scratch buffers. A context
    belongs to one run, so runs on several domains never share one. *)
type ctx

(** A context over [st], [mmu] and [log], starting at [st.rip]. *)
val context : Machine_state.t -> Memsim.Mmu.t -> Step_log.t -> ctx

(** Write the run's RIP back to the state. *)
val finish : ctx -> Machine_state.t -> unit

(** A compiled block. *)
type block

(** Compile each instruction, and compute its encoded length. A
    malformed instruction compiles to code that raises
    [Invalid_argument] when it runs. *)
val block : X86.Inst.t array -> block

(** [run b c idx total] runs [total] dynamic steps of copies of [b]
    laid out back to back, committing each to the log; step [i] is block
    instruction [i mod n], and RIP advances by its length before it
    runs. [idx], 0 on entry, counts the completed steps: on a
    [Memsim.Fault.Fault] it is the faulting step. *)
val run : block -> ctx -> int ref -> int -> unit
