(** The record of one execution, in flat int arrays: for every executed
    instruction (a step), the memory accesses it made, in program order,
    and the events it raised, as a bitmask. Step [i] executes block
    instruction [i mod n], so the log stores no per-step instruction.

    Recording follows a step protocol. {!Semantics} appends the open
    step's accesses and events while the instruction runs; the executor
    then [commit]s them as the next step, or, on a fault, [rollback]s
    them, so the log holds exactly the steps that completed. Recording
    allocates nothing beyond the amortised growth of the arrays.

    A log can be kept outside the OCaml heap: [pack] writes its
    committed steps as varints, and [unpack] reads them back from a byte
    {!buf} into a log, which then equals the packed one. The harness's
    mapping memo keeps final-run logs this way. *)

type event =
  | Subnormal  (** FP operation consumed or produced a subnormal *)
  | Div_fast_path  (** division with zeroed high half of the dividend *)
  | Div_slow_path  (** full-width dividend division *)
  | Div_by_zero  (** #DE; the profiled process would die with SIGFPE *)

(** The event's bit in a step's event mask. *)
val bit : event -> int

(** The log's fields are readable in place, so that a per-step reader
    in another module is a field and an array load rather than a call
    (the simulator's step readers live in [Pipeline.Core]). They are
    written only here, through the recording protocol below and
    [unpack]: the type is private, and no other module writes into its
    arrays. A log that grows, or that [unpack] refills, replaces its
    arrays, so a reader loads them from the log rather than keeping
    them across a change to it. *)
type t = private {
  mutable block : X86.Inst.t array;
  mutable steps : int;  (** committed steps *)
  mutable events : int array;  (** per committed step, an event mask *)
  mutable first : int array;
      (** step [i]'s accesses are [first.(i)] to [first.(i + 1) - 1];
          [first.(steps)] is the committed access count *)
  mutable pending : int;  (** event mask of the open step *)
  mutable accesses : int;
      (** accesses recorded, the open step's included; between steps
          (after a [commit] or a [rollback]) exactly the committed
          steps' accesses *)
  mutable vaddr : int array;
      (** per access; addresses are native ints, since a completed
          access lies in the 47-bit user range *)
  mutable paddr : int array;
  mutable size : int array;
  mutable store : bool array;
}

(** An empty log, sized for [steps] steps. *)
val create : steps:int -> t

(** Empty the log for a run of copies of [block], keeping its arrays. *)
val start : t -> X86.Inst.t array -> unit

(** {2 Recording the open step} *)

(** Append a completed access of [size] bytes at [vaddr], which the MMU
    translated to [paddr]. *)
val access : t -> vaddr:int -> paddr:int -> size:int -> store:bool -> unit

val event : t -> event -> unit

(** Close the open step: its accesses and events become step [t.steps]. *)
val commit : t -> unit

(** Drop the open step's accesses and events. *)
val rollback : t -> unit

(** {2 Reading committed steps}

    Beyond the fields themselves: *)

(** The instruction step [i] executed. *)
val inst : t -> int -> X86.Inst.t

val has_event : t -> int -> event -> bool

(** Did any step raise the event? *)
val any_event : t -> event -> bool

(** {2 Packing} *)

(** A byte buffer outside the OCaml heap. *)
type buf = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [pack t out] appends [t]'s committed steps to [out] as varints. The
    block is not written. A run of identical iterations (block copies)
    is written once, with its length. *)
val pack : t -> Buffer.t -> unit

(** [unpack buf ~pos block ~into] empties [into] and fills it with the
    steps that [pack] wrote, copied to [buf] at [pos], as copies of
    [block]: the same steps, events and accesses, in the same order.
    [block] must have the length of the packed log's block. Refilling
    one log allocates nothing once its arrays are large enough. *)
val unpack : buf -> pos:int -> X86.Inst.t array -> into:t -> unit
