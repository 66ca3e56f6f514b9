(** A minimal JSON tree with a printer and a parser.

    The repository deliberately carries no external JSON dependency;
    this module covers exactly what the telemetry layer needs:
    constructing trace records and bench summaries, printing them
    compactly (one JSONL record per line) or pretty (the
    [bench_summary.json] format), and parsing machine-generated
    summaries back for {!Bench_diff}. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

(** Render a number the way every emitter in this repo does: integers
    without a fractional part, everything else with [%.6g]; non-finite
    values become [null]. *)
val number_to_string : float -> string

(** [to_string v] pretty-prints with two-space indentation (the
    [bench_summary.json] shape). [~compact:true] prints on a single
    line with no spaces — the JSONL trace-record shape. *)
val to_string : ?compact:bool -> t -> string

(** Parse a complete JSON document. Trailing garbage is an error.
    Numbers follow the RFC 8259 grammar: [+1], [.5], [1.], [01] and
    [0x10] are errors. [\u] escapes require exactly four hex digits
    and are decoded to UTF-8; surrogate pairs combine into one
    supplementary-plane code point (4-byte UTF-8), and unpaired
    surrogates are an error. Nesting deeper than 512 levels is an
    error rather than a stack overflow. *)
val parse : string -> (t, string) result

(** [parse] or [invalid_arg]. *)
val parse_exn : string -> t

(** Field lookup on [Object]; [None] on anything else. *)
val member : string -> t -> t option

(** Nested field lookup: [path ["a"; "b"] v = member "b" (member "a" v)]. *)
val path : string list -> t -> t option

val number : t -> float option
val string_value : t -> string option
val list_value : t -> t list option
