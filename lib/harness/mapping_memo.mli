(** A memo of page mappings, shared by the profiles of one engine.

    {!Mapping.run} reads the environment, the block and the unroll
    factor, and no microarchitecture descriptor: the measuring process
    runs the same architectural code on every machine. So the profiles
    of one block on ivb, hsw and skl can share one mapping per unroll
    factor. A hit yields the final run's step log, the faults and the
    distinct frames that {!Mapping.run} would have given, and the L1
    residency verdict on that log ({!Pipeline.Machine.fits_l1}), which
    is the same on every uarch; the profiler then builds the trace,
    runs the warm-up simulation or not as the verdict says, simulates
    and draws noise exactly as without the memo.

    An entry holds the mapping's fault count, its distinct frames, the
    verdict and its final-run log, packed by {!Xsem.Step_log.pack} into
    an arena outside the OCaml heap, or else the mapping failure. A
    miss computes the verdict once, outside the memo's lock. Entries live
    for two generations: {!rotate} makes the current generation the
    previous one and drops the one before, and a hit in the previous
    generation is copied into the current one. An owner that rotates
    once per batch of profiles therefore keeps every mapping a batch
    used for the following batch, and holds at most two batches.

    The log that [map] and [run] return is the caller's [log], hit or
    miss: a miss records into it and a hit unpacks into it, so the memo
    keeps no log of its own. The next [map] or [run] into the same log
    overwrites it. A {!Pipeline.Trace} reads its log in place, so a
    trace built on it is valid only until then. The profiler keeps one
    log per unroll factor, so that the large point's log is still there
    when it compares the small point's with it.

    [map] may run on several domains at once; [rotate] must not run
    while any [map] does. *)

type t

val create : unit -> t

(** What the profiler reads of a mapping. *)
type mapped = {
  steps : Xsem.Step_log.t;  (** the final, complete execution, in the caller's log *)
  faults : int;  (** mappings the monitor had to create *)
  distinct_frames : int;
  fits_l1 : bool;  (** {!Pipeline.Machine.fits_l1}[ steps] *)
}

(** {!Mapping.run}[ ~log] without its MMU and without a memo, with the
    verdict on the log. *)
val run :
  log:Xsem.Step_log.t ->
  Environment.t ->
  X86.Inst.t list ->
  unroll:int ->
  (mapped, Mapping.failure) result

(** [map t ~key ~log env block ~unroll] is {!Mapping.run}[ ~log env
    block ~unroll] without its MMU, from the memo when an entry for
    [key] and [unroll] exists, else mapped now and recorded. [key] must
    identify [env] and [block] exactly: two calls whose keys are equal
    must have equal environments and blocks that encode to the same
    bytes.

    A miss records into [log], and a hit unpacks the stored log into
    it. A caller that reuses one log across calls allocates no step log
    once it has grown: a fresh log per call would put its arrays, each
    too large for the minor heap, straight on the major heap. A hit
    carries the verdict its miss computed. *)
val map :
  t ->
  key:string ->
  log:Xsem.Step_log.t ->
  Environment.t ->
  X86.Inst.t list ->
  unroll:int ->
  (mapped, Mapping.failure) result

(** [seed t ~key compute] is [compute ()], computed once per [key] and
    kept with the key's mappings, for as long as they are. The profiler
    keeps a block's noise seed here, which the profiles of the block on
    ivb, hsw and skl share. [compute] runs without the memo's lock. *)
val seed : t -> key:string -> (unit -> int64) -> int64

(** Start a new generation: the current one becomes the previous one,
    and the previous one's entries are dropped (its arena is kept for
    reuse). *)
val rotate : t -> unit

type stats = {
  hits : int;  (** [map] calls answered from the memo *)
  misses : int;  (** [map] calls that ran {!Mapping.run} *)
}

val stats : t -> stats
