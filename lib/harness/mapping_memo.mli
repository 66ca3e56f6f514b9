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

    The log that [map] and [run] return is the memo's per-domain log,
    hit or miss: a miss records into it and a hit unpacks into it. The
    next [map] or [run] on that domain overwrites it. A
    {!Pipeline.Trace} reads its log in place, so a trace built on it is
    valid only until then; the profiler builds and simulates each
    point's trace before it maps the next point.

    [map] may run on several domains at once; [rotate] must not run
    while any [map] does. *)

type t

val create : unit -> t

(** What the profiler reads of a mapping. *)
type mapped = {
  steps : Xsem.Step_log.t;
      (** the final, complete execution, in the per-domain log *)
  faults : int;  (** mappings the monitor had to create *)
  distinct_frames : int;
  fits_l1 : bool;  (** {!Pipeline.Machine.fits_l1}[ steps] *)
}

(** {!Mapping.run} without its MMU and without a memo, recorded into
    the per-domain log, with the verdict on it. *)
val run :
  Environment.t -> X86.Inst.t list -> unroll:int -> (mapped, Mapping.failure) result

(** [map t ~key env block ~unroll] is {!Mapping.run}[ env block
    ~unroll] without its MMU, from the memo when an entry for [key] and
    [unroll] exists, else mapped now and recorded. [key] must identify
    [env] and [block] exactly: two calls whose keys are equal must have
    equal environments and blocks that encode to the same bytes.

    A miss records into the log the memo keeps per domain, and a hit
    unpacks the stored log into it; either way it stays valid until the
    next [map] or [run] on the same domain: a caller that keeps a log
    longer must copy it. A hit carries the verdict its miss computed. *)
val map :
  t ->
  key:string ->
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
