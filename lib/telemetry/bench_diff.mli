(** The bench regression gate: compare two [bench_summary.json]
    documents (a checked-in baseline and a fresh run) and decide
    whether the perf trajectory regressed.

    Thresholds are stated in one gate language, [[warn ]PATH OP BOUND]:

    - [PATH] is a dotted JSON path; [sections.*.F] applies [F] to each
      baseline section, matched by its [section] name;
    - [OP] is [<=], [>=] or [==]; a value exactly at its bound passes;
    - [BOUND] is [N], [Kx] ([K] times the baseline's value at [PATH])
      or [Kx + N], with finite JSON numbers;
    - [warn] turns a violation into a warning.

    A gate fails when the current summary lacks [PATH] or holds a
    non-number there. A [Kx] bound also fails when the baseline lacks
    [PATH], or holds zero there with no nonzero [+ N], since a zero
    anchors no ratio.

    Fixed checks are code, not gates: different experiment ids give
    [Mismatch]; [faults.lost], [serving.lost] and
    [serving.shed_after_accept] must be zero wherever the current
    summary has them; [faults.quarantined_jobs] must not exceed the
    baseline's (zero without a [faults] object); and every baseline
    section must be present in the current summary. *)

(** The schema version every summary writer stamps into
    [schema_version]. *)
val schema_version : float

(** Reject a summary whose [schema_version] predates 5 — the first
    schema carrying the manifest/experiment identity and journal
    digest — or is absent entirely (schema v1), with a "schema too
    old" message suitable for the CLI's exit-2 path. Older summaries
    cannot answer "did these two runs execute the same experiment?",
    so they are rejected rather than half-compared. *)
val check_schema : Json.t -> (unit, string) result

type gate

(** Parse one gate. The error is a one-line message naming the gate. *)
val parse_gate : string -> (gate, string) result

(** The gate as written, trimmed. *)
val gate_text : gate -> string

(** Applied unless [~identical]; each is skipped where an explicit
    gate would fail for want of a value (see above):
    [executed <= 1.1x + 4], [cache_hit_rate >= 0.95x],
    [warn engine_wall_seconds <= 1.5x + 1], [store.hit_rate >= 0.95x]
    and the three per-section forms [sections.*.executed <= 1.1x + 4],
    [sections.*.cache_hit_rate >= 0.95x] and
    [warn sections.*.wall_seconds <= 1.5x + 1]. *)
val default_gates : gate list

type severity = Info | Warning | Regression

type finding = {
  severity : severity;
  metric : string;  (** e.g. "sections.table5.executed" or "executed" *)
  baseline : float;
  current : float;
  limit : float;  (** the violated (or respected) bound *)
  detail : string;
}

(** [Mismatch] is the distinct verdict for two summaries whose
    [manifest.experiment] ids differ: the runs measured {e different
    experiments}, so no threshold comparison of their numbers is
    meaningful. It maps to its own exit code. *)
type verdict = Pass | Warn | Fail | Mismatch

type report = { findings : finding list; verdict : verdict }

(** Remove fields that legitimately differ between two runs of the
    same workload (wall times, utilization, tier traffic, telemetry
    snapshot, run metadata) from a summary, recursively. What remains
    must be byte-identical between a cold and a warm run. *)
val strip_volatile : Json.t -> Json.t

(** What [~identical] actually compares: at the top level only an
    allowlist of identity-defining fields survives ([schema_version],
    [scale], [name], [manifest], [sections]) — an unknown extra
    top-level object (the schema-v9 [refine] summary, or anything a
    future schema adds) is volatile rather than a mismatch — and below
    the top level {!strip_volatile} applies. *)
val strip_top : Json.t -> Json.t

(** [compare_summaries ?identical ?gates ~baseline ~current ()] runs
    the fixed checks and every gate in [gates].

    [~identical:true] demands the two summaries be structurally equal
    after {!strip_top}; each differing path fails as
    [identical:<path>]. It replaces {!default_gates}: the counters
    they read are volatile by the mode's own contract (a warm or
    resumed run shifts memo hits into store hits). The fixed checks
    and [gates] still apply. *)
val compare_summaries :
  ?identical:bool ->
  ?gates:gate list ->
  baseline:Json.t -> current:Json.t -> unit -> report

val pp_report : Format.formatter -> report -> unit

(** CI exit code: [Pass]/[Warn] → 0, [Fail] → 1, [Mismatch] → 3. *)
val exit_code : report -> int
