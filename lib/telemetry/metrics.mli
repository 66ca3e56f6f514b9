(** Process-wide metrics: named monotonic counters and log-scale
    latency histograms.

    Unlike {!Trace} spans, metrics are always on — an increment is one
    atomic add, an observation one short mutex-protected bucket update
    — and they are aggregated into [bench_summary.json] by the bench
    harness via {!snapshot}. Names are flat dotted strings
    ("engine.executed", "profiler.rejected.unstable"); registering the
    same name twice returns the same instrument. *)

type counter

(** Get or create the counter registered under [name]. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type histogram

(** Get or create a histogram under [name]. Buckets are powers of two:
    bucket [i] holds values in [[2^(i-22), 2^(i-21))], clamped at both
    ends — at one-second units this spans ~0.25µs to ~4M seconds. *)
val histogram : string -> histogram

val observe : histogram -> float -> unit
val count : histogram -> int
val sum : histogram -> float

(** [quantile h q] returns the upper bound of the bucket containing
    the [q]-quantile observation (0 when empty). Accurate to one
    power-of-two bucket, which is all a regression gate needs. *)
val quantile : histogram -> float -> float

(** Non-empty buckets as (upper bound, count), ascending. *)
val bucket_counts : histogram -> (float * int) list

(** All registered instruments as
    [{"counters": {..}, "histograms": {name: {count,sum,p50,p90,p99}}}],
    names sorted. *)
val snapshot : unit -> Json.t

(** Zero every registered instrument (registrations survive — module
    initialisers hold instrument handles). Test hook. *)
val reset : unit -> unit
