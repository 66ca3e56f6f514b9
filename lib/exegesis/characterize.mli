(** Per-instruction characterisation: measured latency, reciprocal
    throughput and micro-op count per instruction form — the
    per-instruction tables (Agner Fog, uops.info, llvm-exegesis) rebuilt
    on top of the block profiler. *)

type result = {
  form : Benchgen.form;
  latency : float option;  (** cycles; [None] for unchainable forms *)
  rthroughput : float;  (** reciprocal throughput, cycles/instruction *)
  uops : float;  (** unfused micro-ops per instruction *)
}

(** Characterise one form; [None] if neither benchmark could be
    measured. The microbenchmarks run through [engine] (memoised,
    fault-tolerant). *)
val characterize :
  engine:Engine.t -> Uarch.Descriptor.t -> Benchgen.form -> result option

(** The full standard-form table for one microarchitecture. *)
val table : engine:Engine.t -> Uarch.Descriptor.t -> result list

val pp_table : Format.formatter -> result list -> unit
