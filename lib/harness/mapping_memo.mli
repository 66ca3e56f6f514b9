(** A memo of page mappings, shared by the profiles of one engine.

    {!Mapping.run} reads the environment, the block and the unroll
    factor, and no microarchitecture descriptor: the measuring process
    runs the same architectural code on every machine. So the profiles
    of one block on ivb, hsw and skl can share one mapping per unroll
    factor. A hit yields the final run's step log, the faults and the
    distinct frames that {!Mapping.run} would have given, and the
    profiler then builds the trace, warms the caches, simulates and
    draws noise exactly as without the memo.

    An entry holds the mapping's fault count, its distinct frames and
    its final-run log, packed by {!Xsem.Step_log.pack} into an arena
    outside the OCaml heap, or else the mapping failure. Entries live
    for two generations: {!rotate} makes the current generation the
    previous one and drops the one before, and a hit in the previous
    generation is copied into the current one. An owner that rotates
    once per batch of profiles therefore keeps every mapping a batch
    used for the following batch, and holds at most two batches.

    A hit's log is the memo's per-domain log, which the next [map] on
    that domain overwrites. A {!Pipeline.Trace} reads its log in place,
    so a trace built on a hit is valid only until that next [map]; the
    profiler builds, walks and simulates each point's trace before it
    maps the next point.

    [map] may run on several domains at once; [rotate] must not run
    while any [map] does. *)

type t

val create : unit -> t

(** What the profiler reads of a mapping. *)
type mapped = {
  steps : Xsem.Step_log.t;  (** the final, complete execution *)
  faults : int;  (** mappings the monitor had to create *)
  distinct_frames : int;
}

(** {!Mapping.run} without its MMU and without a memo. *)
val run :
  Environment.t -> X86.Inst.t list -> unroll:int -> (mapped, Mapping.failure) result

(** [map t ~key env block ~unroll] is {!Mapping.run}[ env block
    ~unroll] without its MMU, from the memo when an entry for [key] and
    [unroll] exists, else mapped now and recorded. [key] must identify
    [env] and [block] exactly: two calls whose keys are equal must have
    equal environments and blocks that encode to the same bytes.

    A miss returns {!Mapping.run}'s own log. A hit unpacks the stored
    log into a log the memo keeps per domain, which stays valid until
    the next [map] on the same domain: a caller that keeps a log longer
    must copy it. *)
val map :
  t ->
  key:string ->
  Environment.t ->
  X86.Inst.t list ->
  unroll:int ->
  (mapped, Mapping.failure) result

(** Start a new generation: the current one becomes the previous one,
    and the previous one's entries are dropped (its arena is kept for
    reuse). *)
val rotate : t -> unit

type stats = {
  hits : int;  (** [map] calls answered from the memo *)
  misses : int;  (** [map] calls that ran {!Mapping.run} *)
}

val stats : t -> stats
