(** Hardware performance counters as read by the measurement framework,
    mirroring the events BHive monitors: core cycles, the cache-miss
    counters and MISALIGNED_MEM_REFERENCE. BHive's OS context-switch
    count has no field: the simulator is never preempted, and the
    profiler's noise model marks a timing that a context switch hits
    unclean itself.

    The simulator additionally exposes introspection counters — busy
    cycles per execution port and stall cycles per cause (front-end
    instruction misses, ROB-full rename stalls, port contention) — the
    events a real PMU reports as UOPS_DISPATCHED_PORT.* /
    RESOURCE_STALLS.*. They feed the telemetry layer and are ignored
    by {!is_clean}. *)

type t = {
  mutable core_cycles : int;
  mutable instructions : int;
  mutable uops : int;
  mutable l1d_read_misses : int;
  mutable l1d_write_misses : int;
  mutable l1i_misses : int;
  mutable l2_misses : int;
  mutable misaligned_mem_refs : int;
  mutable subnormal_assists : int;
  mutable port_cycles : int array;
      (** busy cycles per execution port; [[||]] until a simulation
          sizes it to the uarch's port count *)
  mutable frontend_stall_cycles : int;
      (** cycles the front end lost to L1I/L2 instruction misses *)
  mutable rob_stall_cycles : int;  (** cycles rename waited on a full ROB *)
  mutable port_contention_cycles : int;
      (** uop-cycles spent data-ready but waiting for a free port *)
}

val create : unit -> t

(** A "clean" simulation in the BHive sense: no cache misses of any
    kind. (L2 misses imply L1 misses, so they need no separate clause.) *)
val is_clean : t -> bool

val pp : Format.formatter -> t -> unit
