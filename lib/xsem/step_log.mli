(** The record of one execution, in flat int arrays: for every executed
    instruction (a step), the memory accesses it made, in program order,
    and the events it raised, as a bitmask. Step [i] executes block
    instruction [i mod n], so the log stores no per-step instruction.

    Recording follows a step protocol. {!Semantics} appends the open
    step's accesses and events while the instruction runs; the executor
    then [commit]s them as the next step, or, on a fault, [rollback]s
    them, so the log holds exactly the steps that completed. Recording
    allocates nothing beyond the amortised growth of the arrays. *)

type event =
  | Subnormal  (** FP operation consumed or produced a subnormal *)
  | Div_fast_path  (** division with zeroed high half of the dividend *)
  | Div_slow_path  (** full-width dividend division *)
  | Div_by_zero  (** #DE; the profiled process would die with SIGFPE *)

(** The event's bit in a step's event mask. *)
val bit : event -> int

type t

(** An empty log, sized for [steps] steps. *)
val create : steps:int -> t

(** Empty the log for a run of copies of [block], keeping its arrays. *)
val start : t -> X86.Inst.t array -> unit

(** {2 Recording the open step} *)

(** Append a completed access of [size] bytes at [vaddr], which the MMU
    translated to [paddr]. *)
val access : t -> vaddr:int -> paddr:int -> size:int -> store:bool -> unit

val event : t -> event -> unit

(** Close the open step: its accesses and events become step [steps t]. *)
val commit : t -> unit

(** Drop the open step's accesses and events. *)
val rollback : t -> unit

(** {2 Reading committed steps} *)

val block : t -> X86.Inst.t array
val steps : t -> int

(** The instruction step [i] executed. *)
val inst : t -> int -> X86.Inst.t

(** Step [i]'s event mask. *)
val events : t -> int -> int

val has_event : t -> int -> event -> bool

(** Did any step raise the event? *)
val any_event : t -> event -> bool

(** Number of accesses in the log. Between steps — after a [commit] or
    a [rollback] — these are exactly the committed steps' accesses. *)
val accesses : t -> int

(** Step [i]'s accesses are [first_access t i] to
    [first_access t (i + 1) - 1]. *)
val first_access : t -> int -> int

(** Fields of access [a]. Addresses are native ints: a completed access
    lies in the 47-bit user range. *)
val vaddr : t -> int -> int

val paddr : t -> int -> int
val size : t -> int -> int
val is_store : t -> int -> bool
