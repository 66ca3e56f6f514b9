(* See bench_diff.mli. *)

let schema_version = 10.0

type severity = Info | Warning | Regression

type finding = {
  severity : severity;
  metric : string;
  baseline : float;
  current : float;
  limit : float;
  detail : string;
}

type verdict = Pass | Warn | Fail | Mismatch

type report = { findings : finding list; verdict : verdict }

let num_path path j = Option.bind (Json.path path j) Json.number

(* v5: the first schema carrying the manifest/experiment identity and
   the journal digest; anything older cannot prove the two runs
   executed the same experiment. *)
let check_schema j =
  match num_path [ "schema_version" ] j with
  | Some v when v >= 5.0 -> Ok ()
  | v ->
    let v = Option.fold ~none:"1 (no field)" ~some:Json.number_to_string v in
    Error
      (Printf.sprintf "summary schema v%s is too old to compare (minimum v5)" v)

(* --- the gate language ------------------------------------------------ *)

type gate = {
  text : string;
  warn : bool;
  path : string list;
  cmp : float -> float -> bool;
  ratio : float option;  (* K of a [Kx] bound *)
  offset : float;  (* N of an [N] or [Kx + N] bound, else 0 *)
}

let gate_text g = g.text

(* A finite JSON number, read by the JSON parser so that [nan], [inf],
   [0x10] and [1_000] are refused exactly as inside a summary. *)
let json_number s =
  match Json.parse s with
  | Ok (Json.Number v) when Float.is_finite v -> Some v
  | _ -> None

let parse_bound s =
  match String.split_on_char 'x' s with
  | [ n ] -> Option.map (fun n -> (None, n)) (json_number n)
  | [ k; slack ] -> (
    let n =
      match String.trim slack with
      | "" -> Some 0.0
      | t when t.[0] = '+' ->
        json_number (String.sub t 1 (String.length t - 1))
      | _ -> None
    in
    match (json_number k, n) with
    | Some k, Some n -> Some (Some k, n)
    | _ -> None)
  | _ -> None

let parse_gate text =
  let s = String.trim text in
  let err why = Error (Printf.sprintf "invalid gate %S: %s" s why) in
  let warn = String.starts_with ~prefix:"warn " s in
  let body = if warn then String.sub s 5 (String.length s - 5) else s in
  let rec find_op i =
    if i + 1 >= String.length body then None
    else
      match (body.[i], body.[i + 1]) with
      | '<', '=' -> Some (i, ( <= ))
      | '>', '=' -> Some (i, ( >= ))
      | '=', '=' -> Some (i, ( = ))
      | _ -> find_op (i + 1)
  in
  match find_op 0 with
  | None -> err "no operator (expected <=, >= or ==)"
  | Some (i, cmp) -> (
    let path = String.split_on_char '.' (String.trim (String.sub body 0 i)) in
    let bound = String.sub body (i + 2) (String.length body - i - 2) in
    match parse_bound bound with
    | _ when List.mem "" path -> err "empty path component"
    | None -> err "bound is not N, Kx or Kx + N with finite JSON numbers"
    | Some (ratio, offset) -> Ok { text = s; warn; path; cmp; ratio; offset })

let constant s = match parse_gate s with Ok g -> g | Error e -> invalid_arg e

(* Relative thresholds, applied unless [~identical]: more profiler
   executions than the baseline means the memo cache or batch plan
   regressed; wall time is noisy on shared runners, so it only warns. *)
let default_gates =
  List.map constant
    [
      "executed <= 1.1x + 4";
      "cache_hit_rate >= 0.95x";
      "warn engine_wall_seconds <= 1.5x + 1";
      "store.hit_rate >= 0.95x";
      "sections.*.executed <= 1.1x + 4";
      "sections.*.cache_hit_rate >= 0.95x";
      "warn sections.*.wall_seconds <= 1.5x + 1";
    ]

(* Absolute invariants of any run that reports them: a job or request
   is never lost, and an accepted request is never shed. *)
let invariant_gates =
  List.map constant
    [
      "faults.lost == 0"; "serving.lost == 0"; "serving.shed_after_accept == 0";
    ]

(* One gate at one place; [b] and [c] are the baseline's and the current
   summary's numbers there. Where a value the gate needs is missing, or
   a [Kx] bound with no slack would rest on a zero baseline, an explicit
   gate fails and an [optional] one is skipped. *)
let eval ~optional g ~metric b c =
  let value = Option.value ~default:Float.nan in
  let finding ?(severity = if g.warn then Warning else Regression) limit detail
      =
    { severity; metric; baseline = value b; current = value c; limit; detail }
  in
  let cannot why =
    if optional then []
    else [ finding Float.nan (Printf.sprintf "%s (%s)" why g.text) ]
  in
  match (c, g.ratio, b) with
  | None, _, _ -> cannot "missing or not a number in the current summary"
  | _, Some _, None -> cannot "missing or not a number in the baseline"
  | _, Some _, Some b when b = 0.0 && g.offset = 0.0 ->
    cannot "zero in the baseline, which anchors no ratio"
  | Some c, ratio, b ->
    let scaled = match (ratio, b) with Some k, Some b -> k *. b | _ -> 0.0 in
    let limit = scaled +. g.offset in
    if g.cmp c limit then [ finding ~severity:Info limit "ok" ]
    else [ finding limit ("violates " ^ g.text) ]

let sections j =
  let named s = Option.bind (Json.member "section" s) Json.string_value in
  Option.value ~default:[]
    (Option.bind (Json.member "sections" j) Json.list_value)
  |> List.filter_map (fun s -> Option.map (fun n -> (n, s)) (named s))

(* [sections.*.F] applies [F] to each baseline section, matched by name
   in the current summary. *)
let apply ~optional ~baseline ~current g =
  match g.path with
  | "sections" :: "*" :: field ->
    let cur = sections current in
    List.concat_map
      (fun (name, bs) ->
        eval ~optional g
          ~metric:(String.concat "." ("sections" :: name :: field))
          (num_path field bs)
          (Option.bind (List.assoc_opt name cur) (num_path field)))
      (sections baseline)
  | path ->
    eval ~optional g ~metric:(String.concat "." path) (num_path path baseline)
      (num_path path current)

(* --- identical-mode support (warm-cache CI gate) ---------------------- *)

(* Keys whose values legitimately differ between two runs of the same
   experiment: timing, utilization, tier traffic (a warm run executes
   nothing), scheduling-dependent job accounting (a resumed run
   replays completed sections from the journal, so where submissions
   and retries land shifts even though every section's output is
   byte-identical), worker count, and run metadata. Everything else —
   schema, scale, manifest/experiment ids, journal digest, section
   structure and section output digests — must match byte-for-byte. *)
let volatile_keys =
  [
    "wall_seconds";
    "engine_wall_seconds";
    "perf";
    "busy_seconds";
    "utilization";
    "telemetry";
    "store";
    "submitted";
    "executed";
    "cache_hits";
    "cache_hit_rate";
    "completed";
    "quarantined";
    "retries";
    "jobs";
    "profiler_calls";
    "workers";
    "faults";
    "rev";
    "generated_unix_time";
    (* schema v7: the serving object is all latency/throughput/traffic
       measurement — volatile by nature; its absolute invariants (lost,
       shed_after_accept) are checked on their own instead *)
    "serving";
  ]

let rec strip_volatile (j : Json.t) : Json.t =
  match j with
  | Json.Object kvs ->
    Json.Object
      (List.filter_map
         (fun (k, v) ->
           if List.mem k volatile_keys then None
           else Some (k, strip_volatile v))
         kvs)
  | Json.List items -> Json.List (List.map strip_volatile items)
  | other -> other

(* Identity at the top level is an allowlist, not a blocklist: exactly
   the fields that define the experiment and its deterministic output.
   Any other top-level object — the [refine] summary with its
   resume-dependent store rates, or a future schema's addition an older
   gate has never heard of — is volatile for the identity check; its
   absolute invariants get explicit gates instead. (Below the top
   level the blocklist above still applies: section objects mix
   deterministic digests with volatile timings.) *)
let identity_keys =
  [ "schema_version"; "scale"; "name"; "manifest"; "sections" ]

let strip_top (j : Json.t) : Json.t =
  strip_volatile
    (match j with
    | Json.Object kvs ->
      Json.Object (List.filter (fun (k, _) -> List.mem k identity_keys) kvs)
    | other -> other)

(* Structural diff of the stripped trees: the dotted path of every
   mismatch, with what differs there. *)
let rec diff_paths prefix (a : Json.t) (b : Json.t) =
  let at k = if prefix = "" then k else prefix ^ "." ^ k in
  match (a, b) with
  | Json.Object ka, Json.Object kb ->
    List.concat_map
      (fun (k, va) ->
        match List.assoc_opt k kb with
        | None -> [ (at k, "missing from current") ]
        | Some vb -> diff_paths (at k) va vb)
      ka
    @ List.filter_map
        (fun (k, _) ->
          if List.mem_assoc k ka then None
          else Some (at k, "absent from baseline"))
        kb
  | Json.List la, Json.List lb when List.length la = List.length lb ->
    List.concat
      (List.mapi
         (fun i (va, vb) -> diff_paths (at (string_of_int i)) va vb)
         (List.combine la lb))
  | Json.List la, Json.List lb ->
    let n = List.length in
    [ (prefix, Printf.sprintf "list length %d vs %d" (n la) (n lb)) ]
  | a, b -> if a = b then [] else [ (prefix, "value differs") ]

(* --- the comparison --------------------------------------------------- *)

let note ?(severity = Info) ?(baseline = 0.) ?(current = 1.) metric detail =
  { severity; metric; baseline; current; limit = baseline; detail }

let identity_findings ~baseline ~current =
  List.map
    (fun (p, what) -> note ~severity:Regression ("identical:" ^ p) what)
    (diff_paths "" (strip_top baseline) (strip_top current))

let compare_summaries ?(identical = false) ?(gates = []) ~baseline ~current
    () =
  let both path = (Json.path path baseline, Json.path path current) in
  (* Two summaries with different experiment ids were produced by
     manifests that measure different things, so this is a distinct
     verdict, not a threshold failure. *)
  match both [ "manifest"; "experiment" ] with
  | Some (Json.String b), Some (Json.String c) when b <> c ->
    let short s = String.sub s 0 (min 12 (String.length s)) in
    let detail =
      Printf.sprintf
        "different experiments: baseline %s vs current %s — these runs \
         are not comparable"
        (short b) (short c)
    in
    {
      findings = [ note ~severity:Regression "manifest.experiment" detail ];
      verdict = Mismatch;
    }
  | _ ->
    (* a different manifest id under the same experiment (the chaos
       manifest: same corpus and sections, injected faults) and a
       changed workload size are worth a note, not a verdict *)
    let differs path detail =
      match both path with
      | Some b, Some c when b <> c ->
        let num j d = Option.value (Json.number j) ~default:d in
        [
          note ~baseline:(num b 0.0) ~current:(num c 1.0)
            (String.concat "." path) detail;
        ]
      | _ -> []
    in
    (* more quarantined jobs than the baseline means the engine's
       recovery regressed; a baseline without faults quarantined none *)
    let quarantine =
      let q = num_path [ "faults"; "quarantined_jobs" ] in
      match q current with
      | None -> []
      | Some c ->
        let b = Option.value (q baseline) ~default:0.0 in
        let severity, detail =
          if c > b then (Regression, "more quarantined jobs than baseline")
          else (Info, "ok")
        in
        [
          note ~severity ~baseline:b ~current:c "faults.quarantined_jobs"
            detail;
        ]
    in
    let missing =
      let cur = sections current in
      List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name cur then None
          else
            Some
              (note ~severity:Regression ~baseline:1.0 ~current:0.0
                 ("sections." ^ name)
                 "section present in baseline but missing from current run"))
        (sections baseline)
    in
    let run ~optional = List.concat_map (apply ~optional ~baseline ~current) in
    let findings =
      List.concat
        [
          differs [ "manifest"; "id" ]
            "manifest ids differ (same experiment, different execution \
             configuration)";
          differs [ "submitted" ]
            "workload size changed — regenerate the baseline if intended";
          quarantine;
          missing;
          run ~optional:true invariant_gates;
          (* identical mode declares the counters volatile (a resumed or
             warm run shifts memo hits into store hits), so the default
             relative gates would contradict its contract *)
          (if identical then identity_findings ~baseline ~current
           else run ~optional:true default_gates);
          run ~optional:false gates;
        ]
    in
    let has s = List.exists (fun f -> f.severity = s) findings in
    let verdict =
      if has Regression then Fail else if has Warning then Warn else Pass
    in
    { findings; verdict }

let severity_tag = function
  | Info -> "info"
  | Warning -> "WARN"
  | Regression -> "FAIL"

let verdict_tag = function
  | Pass -> "PASS"
  | Warn -> "PASS (with warnings)"
  | Fail -> "FAIL"
  | Mismatch -> "MISMATCH (different experiment)"

let pp_report fmt r =
  List.iter
    (fun f ->
      if f.severity <> Info || f.detail <> "ok" then
        Format.fprintf fmt "%-4s %-32s baseline=%s current=%s limit=%s  %s@."
          (severity_tag f.severity) f.metric
          (Json.number_to_string f.baseline)
          (Json.number_to_string f.current)
          (Json.number_to_string f.limit)
          f.detail)
    r.findings;
  let count s =
    List.length (List.filter (fun f -> f.severity = s) r.findings)
  in
  Format.fprintf fmt
    "bench-diff: %s (%d comparisons, %d regressions, %d warnings)@."
    (verdict_tag r.verdict) (List.length r.findings) (count Regression)
    (count Warning)

let exit_code r =
  match r.verdict with Fail -> 1 | Mismatch -> 3 | Pass | Warn -> 0
