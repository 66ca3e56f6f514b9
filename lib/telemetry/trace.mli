(** Structured tracing: nested spans with monotonic timing, emitted as
    one JSON record per line (JSONL) to an installable sink.

    {b Zero cost when disabled.} When no sink is installed, {!span}
    reduces to one atomic load followed by a direct call of the body —
    no clock reads, no span-id allocation, no attribute construction
    ([?attrs] is applied to the body's result only when a record is
    actually emitted). [test/test_telemetry.ml] asserts the disabled
    path allocates nothing observable.

    {b Concurrency.} Spans may be opened from any domain. Parent/child
    nesting is tracked per domain (the engine's worker pool passes an
    explicit [?parent] to attach worker-side spans to the submitting
    domain's batch span); sink writes are serialised.

    {b Sink failure.} A sink's first failed write or close stops
    tracing: the sink is removed and closed, no later record reaches
    it, and one line on stderr names it and the error. No exception
    escapes to the traced code, which runs on as if untraced.

    {b Record schema} (one object per line):
    {v
    {"type":"span","name":"engine.execute","id":7,"parent":2,
     "domain":1,"ts_us":123.4,"dur_us":56.7,"attrs":{"worker":1}}
    {"type":"instant","name":"profiler.filter","id":8,"parent":7,
     "domain":1,"ts_us":130.1,"attrs":{"reason":"unstable"}}
    v}
    [ts_us] is microseconds of monotonic time since sink installation;
    [parent] is [0] for roots. *)

type value = Bool of bool | Int of int | Float of float | Str of string

(** Monotonic clock, nanoseconds. Always available (used by the engine
    for worker-utilization accounting even when tracing is off). *)
val now_ns : unit -> int64

(** [span name f] times [f ()] and emits a span record on completion,
    its attributes [attrs r] of the body's result [r]. A body that
    raises still emits its span, with no attributes, and the exception
    propagates. [parent] overrides the domain-local parent — used to
    stitch cross-domain causality. *)
val span :
  ?parent:int -> ?attrs:('a -> (string * value) list) -> string ->
  (unit -> 'a) -> 'a

(** Zero-duration event, e.g. a cache hit or a filter decision. *)
val instant : ?attrs:(unit -> (string * value) list) -> string -> unit

(** Id of the innermost open span on this domain ([0] if none). *)
val current_span : unit -> int

(** Install a JSONL file sink at [path], or, with no [path], at
    [$BHIVE_TRACE] if the variable is set and non-empty; the sink is
    closed at process exit. Replaces (and closes) any previous sink.
    [Error msg] when the file cannot be opened: [msg] names it and the
    reason, and nothing is installed. With neither, installs nothing. *)
val init : ?path:string -> unit -> (unit, string) result

(** Install an arbitrary sink, replacing (and closing) any previous
    one; [write] receives one complete record (no trailing newline).
    Calls to [write] and [close] are serialised. *)
val install_custom : write:(string -> unit) -> close:(unit -> unit) -> unit

(** Close and remove the current sink, if any. *)
val uninstall : unit -> unit
