(* The declarative experiment manifest.

   A manifest is the single versioned description of an experiment run:
   what corpus to generate, which microarchitectures and models to
   evaluate, which measurement filters apply, which sections to
   execute, and where outputs go. Every entry point of the repository
   (bhive_run, the wrapper CLIs, bench/main.exe) synthesizes or loads
   one of these and hands it to [Runner].

   Two content identities, both SHA-256 over a canonical fixed-width
   byte encoding (the [Store.Codec] / [Stable_key] discipline — never
   over JSON text, so formatting and key order cannot change an id):

   - the {e experiment id} covers what is measured: corpus, uarches,
     models, filters and the section list. Two runs with equal
     experiment ids executed the same experiment and their summaries
     are comparable.
   - the {e manifest id} additionally covers how it is executed and
     where outputs go: name, jobs, faults, retry policy, store and
     output paths. It keys the run journal: a journal belongs to
     exactly one manifest id.

   Any change to the encoders below is a format change: bump
   [version] so old ids invalidate instead of colliding. *)

module Codec = Store.Codec
module Json = Telemetry.Json

let version = "bhive-manifest-v1"

(* The integer stamped into the JSON document ("manifest_version"). *)
let json_version = 1

type corpus = { scale : int; seed : int64 option }

(* Measurement-environment overrides, applied over
   [Harness.Environment.default]. All defaults mean "the paper's
   methodology as-is". *)
type filters = {
  naive_unroll : int option;  (** naive unrolling instead of two-point *)
  min_clean : int option;  (** clean-timing acceptance threshold *)
  keep_underflow : bool;  (** do not set FTZ/DAZ *)
  keep_misaligned : bool;  (** keep cache-line-crossing accesses *)
  context_switch_rate : float option;  (** injected timing noise *)
}

type output = {
  summary : string option;  (** bench_summary.json path *)
  failures : string;  (** quarantine manifest (JSONL) *)
  journal : string option;  (** run journal; [None] disables resume *)
  export_prefix : string option;  (** dataset CSV export prefix *)
}

type kind =
  | Corpus_load
  | Corpus_dump of {
      variant : string;  (** "suite", "extended" or "google" *)
      app : string option;
      limit : int option;
      freq : bool;
    }
  | Applications
  | Ablation_suite
  | Ablation_block of { block : string }  (** a named paper block *)
  | Classifier
  | Categories
  | Exemplars
  | Composition of { title : string }
  | Dataset of { uarch : string }
  | Validate
  | Errors
  | Case_study
  | Google
  | Instruction_table of { uarch : string }
  | Port_mapping of { uarch : string }
  | Ablation_unroll
  | Ablation_filters
  | Ablation_noise
  | Speed
  | Profile of {
      asm : string;  (** assembly text, embedded in the manifest *)
      uarch : string;
      with_models : bool;
      schedule : bool;
    }
  | Refine of {
      uarch : string;
      seed : int64;  (** perturbation seed ([Refine.Perturb]) *)
      edits : int;  (** perturbed table entries to recover *)
      target_error : float;  (** stop when mean error drops below this *)
      max_evals : int;  (** candidate-evaluation budget *)
    }

type section = { label : string option; kind : kind }

type t = {
  name : string;
  corpus : corpus;
  uarches : string list;  (** short names; [] means all *)
  models : string list;  (** model keys; [] means all four *)
  filters : filters;
  max_retries : int option;  (** the JSON's [policy.max_retries] *)
  faults : Faultsim.config option;
  jobs : int option;
  store : string option;
  output : output;
  sections : section list;
}

let default_filters =
  {
    naive_unroll = None;
    min_clean = None;
    keep_underflow = false;
    keep_misaligned = false;
    context_switch_rate = None;
  }

let default_output =
  {
    summary = None;
    failures = "failures.jsonl";
    journal = None;
    export_prefix = None;
  }

let make ?(name = "experiment") ?(scale = 100) ?seed ?(uarches = [])
    ?(models = []) ?(filters = default_filters) ?max_retries ?faults ?jobs
    ?store ?(output = default_output) ~sections () =
  {
    name;
    corpus = { scale; seed };
    uarches;
    models;
    filters;
    max_retries;
    faults;
    jobs;
    store;
    output;
    sections;
  }

let section ?label kind = { label; kind }

(* ------------------------------------------------------------------ *)
(* Names and lookups                                                   *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | Corpus_load -> "corpus"
  | Corpus_dump _ -> "dump"
  | Applications -> "applications"
  | Ablation_suite -> "ablation-suite"
  | Ablation_block { block } -> "ablation-block-" ^ block
  | Classifier -> "classifier"
  | Categories -> "categories"
  | Exemplars -> "exemplars"
  | Composition _ -> "composition"
  | Dataset { uarch } -> "dataset-" ^ uarch
  | Validate -> "validate"
  | Errors -> "errors"
  | Case_study -> "case-study"
  | Google -> "google"
  | Instruction_table { uarch } -> "instruction-table-" ^ uarch
  | Port_mapping { uarch } -> "port-mapping-" ^ uarch
  | Ablation_unroll -> "ablation-unroll"
  | Ablation_filters -> "ablation-filters"
  | Ablation_noise -> "ablation-noise"
  | Speed -> "speed"
  | Profile _ -> "profile"
  | Refine { uarch; _ } -> "refine-" ^ uarch

let section_name s =
  match s.label with Some l -> l | None -> kind_name s.kind

(* Sections whose rendered output is legitimately different on every
   run (wall-clock micro-benchmarks): their output digest is recorded
   as "-" and excluded from the byte-identity contract. *)
let volatile_output s = match s.kind with Speed -> true | _ -> false

(* Model keys (manifest spelling) and the display names the evaluation
   layer uses. *)
let model_names =
  [
    ("iaca", "IACA");
    ("llvm-mca", "llvm-mca");
    ("ithemal", "Ithemal");
    ("osaca", "OSACA");
  ]

let model_display key = List.assoc_opt key model_names

(* Named paper blocks usable in ablation-block sections. *)
let paper_blocks =
  [
    ("tensorflow", Corpus.Paper_blocks.tensorflow_ablation);
    ("division", Corpus.Paper_blocks.division);
    ("zero-idiom", Corpus.Paper_blocks.zero_idiom);
    ("gzip-crc", Corpus.Paper_blocks.gzip_crc);
  ]

let paper_block key = List.assoc_opt key paper_blocks

(* Resolved uarch descriptors, in manifest order ([] = all). *)
let resolved_uarches t =
  match t.uarches with
  | [] -> Uarch.All.all
  | shorts -> List.filter_map Uarch.All.by_short shorts

let dump_variants = [ "suite"; "extended"; "google" ]

(* The measurement environment a filters record describes. Exposed on
   its own (not just via [environment]) because a serve request is a
   tiny manifest: its filters object resolves through exactly this
   function, so daemon answers and CLI answers agree by construction. *)
let environment_of_filters (f : filters) =
  let e = Harness.Environment.default in
  let e =
    match f.naive_unroll with
    | Some u -> { e with Harness.Environment.unroll = Harness.Environment.Naive u }
    | None -> e
  in
  let e = match f.min_clean with Some m -> { e with min_clean = m } | None -> e in
  let e =
    {
      e with
      disable_underflow = not f.keep_underflow;
      drop_misaligned = not f.keep_misaligned;
    }
  in
  match f.context_switch_rate with
  | Some r -> { e with context_switch_rate = r }
  | None -> e

let environment t = environment_of_filters t.filters

(* ------------------------------------------------------------------ *)
(* Canonical encoding and ids                                          *)
(* ------------------------------------------------------------------ *)

let add_corpus buf c =
  Codec.int buf c.scale;
  Codec.option buf Codec.i64 c.seed

let add_filters buf f =
  Codec.option buf Codec.int f.naive_unroll;
  Codec.option buf Codec.int f.min_clean;
  Codec.bool buf f.keep_underflow;
  Codec.bool buf f.keep_misaligned;
  Codec.option buf Codec.float f.context_switch_rate

let add_kind buf = function
  | Corpus_load -> Codec.u8 buf 0
  | Corpus_dump { variant; app; limit; freq } ->
    Codec.u8 buf 1;
    Codec.str buf variant;
    Codec.option buf Codec.str app;
    Codec.option buf Codec.int limit;
    Codec.bool buf freq
  | Applications -> Codec.u8 buf 2
  | Ablation_suite -> Codec.u8 buf 3
  | Ablation_block { block } ->
    Codec.u8 buf 4;
    Codec.str buf block
  | Classifier -> Codec.u8 buf 5
  | Categories -> Codec.u8 buf 6
  | Exemplars -> Codec.u8 buf 7
  | Composition { title } ->
    Codec.u8 buf 8;
    Codec.str buf title
  | Dataset { uarch } ->
    Codec.u8 buf 9;
    Codec.str buf uarch
  | Validate -> Codec.u8 buf 10
  | Errors -> Codec.u8 buf 11
  | Case_study -> Codec.u8 buf 12
  | Google -> Codec.u8 buf 13
  | Instruction_table { uarch } ->
    Codec.u8 buf 14;
    Codec.str buf uarch
  | Port_mapping { uarch } ->
    Codec.u8 buf 15;
    Codec.str buf uarch
  | Ablation_unroll -> Codec.u8 buf 16
  | Ablation_filters -> Codec.u8 buf 17
  | Ablation_noise -> Codec.u8 buf 18
  | Speed -> Codec.u8 buf 19
  | Profile { asm; uarch; with_models; schedule } ->
    Codec.u8 buf 20;
    Codec.str buf asm;
    Codec.str buf uarch;
    Codec.bool buf with_models;
    Codec.bool buf schedule
  | Refine { uarch; seed; edits; target_error; max_evals } ->
    Codec.u8 buf 21;
    Codec.str buf uarch;
    Codec.i64 buf seed;
    Codec.int buf edits;
    Codec.float buf target_error;
    Codec.int buf max_evals

let add_section buf s =
  Codec.option buf Codec.str s.label;
  add_kind buf s.kind

(* The experiment-defining subset: what is measured. *)
let add_experiment buf t =
  Codec.str buf version;
  add_corpus buf t.corpus;
  Codec.list buf Codec.str t.uarches;
  Codec.list buf Codec.str t.models;
  add_filters buf t.filters;
  Codec.list buf add_section t.sections

let experiment_id t =
  let buf = Buffer.create 512 in
  add_experiment buf t;
  Store.Sha256.hex (Buffer.contents buf)

(* The full manifest: experiment + execution configuration + outputs. *)
let id t =
  let buf = Buffer.create 512 in
  add_experiment buf t;
  Codec.str buf t.name;
  Codec.option buf Codec.int t.max_retries;
  Codec.option buf
    (fun b f -> Codec.str b (Faultsim.to_string f))
    t.faults;
  Codec.option buf Codec.int t.jobs;
  Codec.option buf Codec.str t.store;
  Codec.option buf Codec.str t.output.summary;
  Codec.str buf t.output.failures;
  Codec.option buf Codec.str t.output.journal;
  Codec.option buf Codec.str t.output.export_prefix;
  Store.Sha256.hex (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let kind_tag = function
  | Corpus_load -> "corpus"
  | Corpus_dump _ -> "dump"
  | Applications -> "applications"
  | Ablation_suite -> "ablation-suite"
  | Ablation_block _ -> "ablation-block"
  | Classifier -> "classifier"
  | Categories -> "categories"
  | Exemplars -> "exemplars"
  | Composition _ -> "composition"
  | Dataset _ -> "dataset"
  | Validate -> "validate"
  | Errors -> "errors"
  | Case_study -> "case-study"
  | Google -> "google"
  | Instruction_table _ -> "instruction-table"
  | Port_mapping _ -> "port-mapping"
  | Ablation_unroll -> "ablation-unroll"
  | Ablation_filters -> "ablation-filters"
  | Ablation_noise -> "ablation-noise"
  | Speed -> "speed"
  | Profile _ -> "profile"
  | Refine _ -> "refine"

let num i = Json.Number (float_of_int i)

let opt name f v = match v with None -> [] | Some x -> [ (name, f x) ]

let section_to_json s =
  let fields =
    match s.kind with
    | Corpus_dump { variant; app; limit; freq } ->
      [ ("variant", Json.String variant) ]
      @ opt "app" (fun a -> Json.String a) app
      @ opt "limit" num limit
      @ (if freq then [ ("freq", Json.Bool true) ] else [])
    | Ablation_block { block } -> [ ("block", Json.String block) ]
    | Composition { title } -> [ ("title", Json.String title) ]
    | Dataset { uarch } | Instruction_table { uarch } | Port_mapping { uarch }
      ->
      [ ("uarch", Json.String uarch) ]
    | Profile { asm; uarch; with_models; schedule } ->
      [ ("uarch", Json.String uarch); ("asm", Json.String asm) ]
      @ (if with_models then [ ("models", Json.Bool true) ] else [])
      @ if schedule then [ ("schedule", Json.Bool true) ] else []
    | Refine { uarch; seed; edits; target_error; max_evals } ->
      [
        ("uarch", Json.String uarch);
        ("seed", Json.Number (Int64.to_float seed));
        ("edits", num edits);
        ("target_error", Json.Number target_error);
        ("max_evals", num max_evals);
      ]
    | _ -> []
  in
  Json.Object
    ((("kind", Json.String (kind_tag s.kind))
     :: opt "label" (fun l -> Json.String l) s.label)
    @ fields)

(* Shared with the serve wire protocol: a request's filters object is
   rendered and parsed with the same code as a manifest's. *)
let filters_to_json (f : filters) =
  Json.Object
    (opt "naive_unroll" num f.naive_unroll
    @ opt "min_clean" num f.min_clean
    @ (if f.keep_underflow then [ ("keep_underflow", Json.Bool true) ] else [])
    @ (if f.keep_misaligned then [ ("keep_misaligned", Json.Bool true) ]
       else [])
    @ opt "context_switch_rate"
        (fun r -> Json.Number r)
        f.context_switch_rate)

let to_json t =
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  let filters = filters_to_json t.filters in
  let policy = Json.Object (opt "max_retries" num t.max_retries) in
  let output =
    Json.Object
      (opt "summary" (fun s -> Json.String s) t.output.summary
      @ [ ("failures", Json.String t.output.failures) ]
      @ opt "journal" (fun s -> Json.String s) t.output.journal
      @ opt "export_prefix" (fun s -> Json.String s) t.output.export_prefix)
  in
  Json.Object
    ([
       ("manifest_version", num json_version);
       ("name", Json.String t.name);
       ( "corpus",
         Json.Object
           (("scale", num t.corpus.scale)
           :: opt "seed" (fun s -> Json.Number (Int64.to_float s)) t.corpus.seed
           ) );
       ("uarches", strings t.uarches);
       ("models", strings t.models);
       ("filters", filters);
       ("policy", policy);
     ]
    @ opt "faults" (fun f -> Json.String (Faultsim.to_string f)) t.faults
    @ opt "jobs" num t.jobs
    @ opt "store" (fun s -> Json.String s) t.store
    @ [
        ("output", output);
        ("sections", Json.List (List.map section_to_json t.sections));
      ])

let to_string t = Json.to_string (to_json t)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let str_field name j = Option.bind (Json.member name j) Json.string_value
let num_field name j = Option.bind (Json.member name j) Json.number
let int_field name j = Option.map int_of_float (num_field name j)

let bool_field name j =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let require what = function Some v -> v | None -> fail "manifest: missing %s" what

let section_of_json j =
  let label = str_field "label" j in
  let uarch () = require "section uarch" (str_field "uarch" j) in
  let kind =
    match require "section kind" (str_field "kind" j) with
    | "corpus" -> Corpus_load
    | "dump" ->
      Corpus_dump
        {
          variant = Option.value ~default:"suite" (str_field "variant" j);
          app = str_field "app" j;
          limit = int_field "limit" j;
          freq = Option.value ~default:false (bool_field "freq" j);
        }
    | "applications" -> Applications
    | "ablation-suite" -> Ablation_suite
    | "ablation-block" ->
      Ablation_block { block = require "section block" (str_field "block" j) }
    | "classifier" -> Classifier
    | "categories" -> Categories
    | "exemplars" -> Exemplars
    | "composition" ->
      Composition { title = require "section title" (str_field "title" j) }
    | "dataset" -> Dataset { uarch = uarch () }
    | "validate" -> Validate
    | "errors" -> Errors
    | "case-study" -> Case_study
    | "google" -> Google
    | "instruction-table" -> Instruction_table { uarch = uarch () }
    | "port-mapping" -> Port_mapping { uarch = uarch () }
    | "ablation-unroll" -> Ablation_unroll
    | "ablation-filters" -> Ablation_filters
    | "ablation-noise" -> Ablation_noise
    | "speed" -> Speed
    | "profile" ->
      Profile
        {
          asm = require "section asm" (str_field "asm" j);
          uarch = uarch ();
          with_models = Option.value ~default:false (bool_field "models" j);
          schedule = Option.value ~default:false (bool_field "schedule" j);
        }
    | "refine" ->
      Refine
        {
          uarch = uarch ();
          seed =
            Int64.of_float (require "section seed" (num_field "seed" j));
          edits = Option.value ~default:2 (int_field "edits" j);
          target_error =
            Option.value ~default:0.05 (num_field "target_error" j);
          max_evals = Option.value ~default:200 (int_field "max_evals" j);
        }
    | k -> fail "manifest: unknown section kind %S" k
  in
  { label; kind }

(* Raises [Failure] on malformed fields, like the rest of the parser;
   callers outside [of_json] (the serve request decoder) catch it. *)
let filters_of_json f =
  {
    naive_unroll = int_field "naive_unroll" f;
    min_clean = int_field "min_clean" f;
    keep_underflow =
      Option.value ~default:false (bool_field "keep_underflow" f);
    keep_misaligned =
      Option.value ~default:false (bool_field "keep_misaligned" f);
    context_switch_rate = num_field "context_switch_rate" f;
  }

let of_json j =
  try
    (match int_field "manifest_version" j with
    | Some v when v = json_version -> ()
    | Some v -> fail "manifest: unsupported manifest_version %d (expected %d)" v json_version
    | None -> fail "manifest: missing manifest_version");
    let corpus =
      match Json.member "corpus" j with
      | Some c ->
        {
          scale = Option.value ~default:100 (int_field "scale" c);
          seed = Option.map Int64.of_float (num_field "seed" c);
        }
      | None -> { scale = 100; seed = None }
    in
    let strings name =
      match Option.bind (Json.member name j) Json.list_value with
      | None -> []
      | Some items ->
        List.map
          (fun v ->
            match Json.string_value v with
            | Some s -> s
            | None -> fail "manifest: %s entries must be strings" name)
          items
    in
    let filters =
      match Json.member "filters" j with
      | None -> default_filters
      | Some f -> filters_of_json f
    in
    let max_retries =
      match Json.member "policy" j with
      | None -> None
      | Some (Json.Object fields as p) -> (
        match List.find_opt (fun (k, _) -> k <> "max_retries") fields with
        | Some (k, _) ->
          fail "manifest: policy: unknown key %S (expected max_retries)" k
        | None -> int_field "max_retries" p)
      | Some _ -> fail "manifest: policy must be an object"
    in
    let faults =
      match str_field "faults" j with
      | None -> None
      | Some s -> (
        match Faultsim.parse s with
        | Ok c -> Some c
        | Error m -> fail "manifest: faults: %s" m)
    in
    let output =
      match Json.member "output" j with
      | None -> default_output
      | Some o ->
        {
          summary = str_field "summary" o;
          failures =
            Option.value ~default:default_output.failures
              (str_field "failures" o);
          journal = str_field "journal" o;
          export_prefix = str_field "export_prefix" o;
        }
    in
    let sections =
      match Option.bind (Json.member "sections" j) Json.list_value with
      | None | Some [] -> fail "manifest: no sections"
      | Some items -> List.map section_of_json items
    in
    Ok
      {
        name = Option.value ~default:"experiment" (str_field "name" j);
        corpus;
        uarches = strings "uarches";
        models = strings "models";
        filters;
        max_retries;
        faults;
        jobs = int_field "jobs" j;
        store = str_field "store" j;
        output;
        sections;
      }
  with Bad msg -> Error msg

let of_string s =
  match Json.parse s with
  | Error e -> Error ("manifest: " ^ e)
  | Ok j -> of_json j

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read manifest %s: %s" path msg)
  | contents -> of_string contents

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_uarch where short =
    match Uarch.All.by_short short with
    | Some _ -> Ok ()
    | None -> err "%s: unknown microarchitecture %S (ivb/hsw/skl)" where short
  in
  let rec all = function
    | [] -> Ok ()
    | Error _ as e :: _ -> e
    | Ok () :: rest -> all rest
  in
  let ( let* ) = Result.bind in
  let* () =
    if t.corpus.scale >= 1 then Ok ()
    else err "manifest %s: corpus scale must be >= 1" t.name
  in
  let* () = all (List.map (check_uarch "manifest") t.uarches) in
  let* () =
    all
      (List.map
         (fun m ->
           match model_display m with
           | Some _ -> Ok ()
           | None -> err "manifest %s: unknown model %S (iaca/llvm-mca/ithemal/osaca)" t.name m)
         t.models)
  in
  let* () =
    match t.max_retries with
    | Some n when n < 0 -> err "manifest %s: max_retries must be >= 0" t.name
    | _ -> Ok ()
  in
  let* () =
    if t.sections = [] then err "manifest %s: no sections" t.name else Ok ()
  in
  let resolved_shorts =
    List.map (fun (u : Uarch.Descriptor.t) -> u.short) (resolved_uarches t)
  in
  let requires_hsw name =
    if List.mem "hsw" resolved_shorts then Ok ()
    else err "section %s requires microarchitecture hsw in the manifest's uarch set" name
  in
  let check_section s =
    let name = section_name s in
    match s.kind with
    | Corpus_dump { variant; _ } ->
      if List.mem variant dump_variants then Ok ()
      else err "section %s: unknown corpus variant %S (suite/extended/google)" name variant
    | Ablation_block { block } -> (
      match paper_block block with
      | Some _ -> Ok ()
      | None ->
        err "section %s: unknown paper block %S (%s)" name block
          (String.concat "/" (List.map fst paper_blocks)))
    | Dataset { uarch } ->
      let* () = check_uarch ("section " ^ name) uarch in
      if List.mem uarch resolved_shorts then Ok ()
      else err "section %s: uarch %s is not in the manifest's uarch set" name uarch
    | Instruction_table { uarch } | Port_mapping { uarch } ->
      check_uarch ("section " ^ name) uarch
    | Case_study | Google -> requires_hsw name
    | Profile { asm; uarch; _ } -> (
      let* () = check_uarch ("section " ^ name) uarch in
      match X86.Parser.block asm with
      | Error e -> err "section %s: parse error: %s" name e
      | Ok [] -> err "section %s: empty block" name
      | Ok _ -> Ok ())
    | Refine { uarch; edits; target_error; max_evals; _ } ->
      let* () = check_uarch ("section " ^ name) uarch in
      let* () =
        if List.mem uarch resolved_shorts then Ok ()
        else err "section %s: uarch %s is not in the manifest's uarch set" name uarch
      in
      let* () =
        if edits >= 1 then Ok ()
        else err "section %s: edits must be >= 1" name
      in
      let* () =
        if target_error > 0.0 then Ok ()
        else err "section %s: target_error must be > 0" name
      in
      if max_evals >= 1 then Ok ()
      else err "section %s: max_evals must be >= 1" name
    | _ -> Ok ()
  in
  let* () = all (List.map check_section t.sections) in
  (* duplicate section names would make journal records ambiguous *)
  let names = List.map section_name t.sections in
  let rec dup = function
    | [] -> Ok ()
    | n :: rest ->
      if List.mem n rest then err "manifest %s: duplicate section name %S" t.name n
      else dup rest
  in
  dup names

(* Check every output path's directory up front so a long run cannot
   die mid-way on a typo'd path: exit-2 material, one line each. *)
let validate_outputs t =
  let check what = function
    | None -> Ok ()
    | Some path ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir) then
        Error (Printf.sprintf "output directory %s for %s does not exist" dir what)
      else if not (Sys.is_directory dir) then
        Error (Printf.sprintf "output path %s for %s is not a directory" dir what)
      else (
        match Unix.access dir [ Unix.W_OK ] with
        | () -> Ok ()
        | exception Unix.Unix_error _ ->
          Error
            (Printf.sprintf "output directory %s for %s is not writable" dir what))
  in
  let ( let* ) = Result.bind in
  let* () = check "the summary" t.output.summary in
  let* () = check "the failures manifest" (Some t.output.failures) in
  let* () = check "the run journal" t.output.journal in
  let* () = check "the dataset export" t.output.export_prefix in
  Ok ()

(* ------------------------------------------------------------------ *)
(* The bench manifest                                                  *)
(* ------------------------------------------------------------------ *)

(* The full evaluation — every table and figure of the paper plus the
   methodology ablations and speed micro-benchmarks, labelled with the
   paper artefact names. bench/main.exe synthesizes exactly this;
   examples/bench.manifest.json is its printed form. *)
let bench ?(name = "bench") ~scale () =
  let sec = section in
  make ~name ~scale
    ~output:
      {
        summary = Some "bench_summary.json";
        failures = "failures.jsonl";
        journal = Some "bench.journal.jsonl";
        export_prefix = None;
      }
    ~sections:
      [
        sec ~label:"corpus" Corpus_load;
        sec ~label:"table3" Applications;
        sec ~label:"table1" Ablation_suite;
        sec ~label:"table2" (Ablation_block { block = "tensorflow" });
        sec ~label:"classifier" Classifier;
        sec ~label:"table4" Categories;
        sec ~label:"fig-examples" Exemplars;
        sec ~label:"fig-apps-vs-clusters"
          (Composition
             {
               title =
                 "Figure: breakdown of applications by basic block categories";
             });
        sec ~label:"table5" Validate;
        sec ~label:"fig-errors" Errors;
        sec ~label:"table6" Case_study;
        sec ~label:"table7" Google;
        sec ~label:"instruction-table" (Instruction_table { uarch = "hsw" });
        sec ~label:"port-mapping" (Port_mapping { uarch = "hsw" });
        sec ~label:"ablation-unroll" Ablation_unroll;
        sec ~label:"ablation-filters" Ablation_filters;
        sec ~label:"ablation-noise" Ablation_noise;
        sec ~label:"speed" Speed;
      ]
    ()
