(** Hardware performance counters, as read by the measurement framework.

    These mirror the events BHive monitors: core cycles, the three L1
    miss counters and MISALIGNED_MEM_REFERENCE. BHive's OS
    context-switch count has no field: the simulator is never
    preempted, and the profiler's noise model marks a timing that a
    context switch hits unclean itself.

    Beyond the paper's event set, the simulator also exposes its own
    introspection counters — per-port busy cycles and per-cause stall
    cycles — which real PMUs surface as UOPS_DISPATCHED_PORT.* and the
    various *_STALLS events. They feed the telemetry layer and never
    participate in the clean-measurement filter. *)

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
      (** busy cycles per execution port (length = the uarch's port
          count; [[||]] until a simulation sizes it) *)
  mutable frontend_stall_cycles : int;
      (** cycles the front end lost to L1I/L2 instruction misses *)
  mutable rob_stall_cycles : int;  (** cycles rename waited on a full ROB *)
  mutable port_contention_cycles : int;
      (** uop-cycles spent data-ready but waiting for a free port *)
}

let create () =
  {
    core_cycles = 0;
    instructions = 0;
    uops = 0;
    l1d_read_misses = 0;
    l1d_write_misses = 0;
    l1i_misses = 0;
    l2_misses = 0;
    misaligned_mem_refs = 0;
    subnormal_assists = 0;
    port_cycles = [||];
    frontend_stall_cycles = 0;
    rob_stall_cycles = 0;
    port_contention_cycles = 0;
  }

(* A "clean" simulation in the BHive sense: no cache misses of any
   kind. *)
let is_clean t =
  t.l1d_read_misses = 0 && t.l1d_write_misses = 0 && t.l1i_misses = 0

let pp_ports fmt t =
  Format.fprintf fmt "[";
  Array.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "p%d:%d" i c)
    t.port_cycles;
  Format.fprintf fmt "]"

let pp fmt t =
  Format.fprintf fmt
    "cycles=%d insts=%d uops=%d l1d_rd_miss=%d l1d_wr_miss=%d l1i_miss=%d \
     l2_miss=%d misaligned=%d assists=%d ports=%a \
     fe_stall=%d rob_stall=%d port_stall=%d"
    t.core_cycles t.instructions t.uops t.l1d_read_misses t.l1d_write_misses
    t.l1i_misses t.l2_misses t.misaligned_mem_refs
    t.subnormal_assists pp_ports t t.frontend_stall_cycles t.rob_stall_cycles
    t.port_contention_cycles
