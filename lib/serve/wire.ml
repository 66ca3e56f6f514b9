(* The bhive_serve wire protocol.

   Frames are length-prefixed binary:

   {v
     "BHSV" | u32 payload_len (LE) | payload bytes
   v}

   and the payload is one compact JSON document. JSON rather than a
   bespoke binary encoding because a request is literally a small
   manifest — the [filters] object is parsed by the same
   [Manifest.Spec] code as a manifest file's, so a daemon answer and a
   CLI answer resolve the measurement environment identically by
   construction. The frame prefix exists so that a reader never has to
   scan for a delimiter and an oversized or garbage payload is
   rejected before any of it is parsed.

   Requests ([op]):
   - ["predict"] — asm (required, AT&T or Intel syntax), uarch short
     name, optional [deadline_ms], optional [block_hex] (hex of the
     encoded block bytes, cross-checked against the parsed asm),
     optional [filters] (manifest filters object).
   - ["predict_batch"] (v2 only) — shared uarch / deadline_ms /
     filters plus a non-empty [blocks] array of [{asm, block_hex?}],
     amortising framing and syscalls over many blocks. Each block is
     admitted, coalesced, shed and answered independently.
   - ["stats"] — server and engine counters snapshot.
   - ["ping"] — liveness probe.

   The protocol version is per-request: the server accepts [v] of 1 or
   2 on any connection, so a v1 client never has to change, and a v2
   client can mix single and batch requests on one socket. Responses
   echo the request's version.

   Responses: [{"v":1,"status":"ok","result":...}] carrying the
   canonical outcome object (shared by the server and the load
   generator's verification path — byte-identity between daemon and
   CLI answers is checked against this exact rendering), or
   [{"v":1,"status":"error","error":<kind>,"message":...}] with kind
   one of overloaded | deadline_exceeded | bad_request |
   shutting_down. A batch answer is
   [{"v":2,"status":"ok","results":[<slot>...]}] where each slot is
   the version-less body of a single-predict response in request
   order — the slot's ["result"] object is byte-identical to what a v1
   ["predict"] of the same block returns. *)

module Json = Telemetry.Json

let version = 1
let version_batch = 2
let magic = "BHSV"

(* Generous for one basic block + headroom; a frame this size is a
   confused or malicious client, not a real request. *)
let max_frame_len = 1 lsl 22

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let write_frame fd payload =
  let buf = Buffer.create (8 + String.length payload) in
  Buffer.add_string buf magic;
  Store.Codec.u32 buf (String.length payload);
  Buffer.add_string buf payload;
  Store.Eintr.really_write_substring fd (Buffer.contents buf)

type read_error = Eof | Malformed of string

let read_frame fd =
  let hdr = Bytes.create 8 in
  match Store.Eintr.read fd hdr 0 8 with
  | 0 -> Error Eof
  | n ->
    if n < 8 && not (Store.Eintr.really_read fd hdr n (8 - n)) then
      Error (Malformed "truncated frame header")
    else if Bytes.sub_string hdr 0 4 <> magic then
      Error (Malformed "bad frame magic")
    else
      let len = Store.Codec.get_u32 hdr 4 in
      if len > max_frame_len then
        Error (Malformed (Printf.sprintf "oversized frame (%d bytes)" len))
      else
        let b = Bytes.create len in
        if Store.Eintr.really_read fd b 0 len then
          Ok (Bytes.unsafe_to_string b)
        else Error (Malformed "truncated frame payload")

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type predict = {
  asm : string;
  uarch : string;
  deadline_ms : int option;
  block_hex : string option;
  filters : Manifest.Spec.filters;
}

(* One batched block: the asm plus its optional encoded-bytes
   cross-check. uarch, deadline and filters are shared batch-wide —
   a client mixing uarchs sends several batches. *)
type batch_block = { bb_asm : string; bb_block_hex : string option }

type predict_batch = {
  pb_uarch : string;
  pb_deadline_ms : int option;
  pb_filters : Manifest.Spec.filters;
  pb_blocks : batch_block list;
}

type request = Predict of predict | Predict_batch of predict_batch | Stats | Ping

(* Expand one batch slot into the equivalent single-predict request —
   admission and rendering then share every code path with v1, which
   is what makes v1/v2 byte-identity hold by construction. *)
let predict_of_batch_block pb bb =
  {
    asm = bb.bb_asm;
    uarch = pb.pb_uarch;
    deadline_ms = pb.pb_deadline_ms;
    block_hex = bb.bb_block_hex;
    filters = pb.pb_filters;
  }

let request_to_json = function
  | Ping ->
    Json.Object [ ("v", Json.Number (float_of_int version)); ("op", Json.String "ping") ]
  | Stats ->
    Json.Object [ ("v", Json.Number (float_of_int version)); ("op", Json.String "stats") ]
  | Predict p ->
    Json.Object
      ([
         ("v", Json.Number (float_of_int version));
         ("op", Json.String "predict");
         ("asm", Json.String p.asm);
         ("uarch", Json.String p.uarch);
       ]
      @ (match p.deadline_ms with
        | Some d -> [ ("deadline_ms", Json.Number (float_of_int d)) ]
        | None -> [])
      @ (match p.block_hex with
        | Some h -> [ ("block_hex", Json.String h) ]
        | None -> [])
      @
      if p.filters = Manifest.Spec.default_filters then []
      else [ ("filters", Manifest.Spec.filters_to_json p.filters) ])
  | Predict_batch pb ->
    Json.Object
      ([
         ("v", Json.Number (float_of_int version_batch));
         ("op", Json.String "predict_batch");
         ("uarch", Json.String pb.pb_uarch);
       ]
      @ (match pb.pb_deadline_ms with
        | Some d -> [ ("deadline_ms", Json.Number (float_of_int d)) ]
        | None -> [])
      @ (if pb.pb_filters = Manifest.Spec.default_filters then []
         else [ ("filters", Manifest.Spec.filters_to_json pb.pb_filters) ])
      @ [
          ( "blocks",
            Json.List
              (List.map
                 (fun bb ->
                   Json.Object
                     (("asm", Json.String bb.bb_asm)
                     ::
                     (match bb.bb_block_hex with
                     | Some h -> [ ("block_hex", Json.String h) ]
                     | None -> [])))
                 pb.pb_blocks) );
        ])

let request_to_string r = Json.to_string ~compact:true (request_to_json r)

let str_field name j =
  Option.bind (Json.member name j) Json.string_value

let int_field name j =
  Option.bind (Json.member name j) Json.number |> Option.map int_of_float

let filters_field j =
  match Json.member "filters" j with
  | None -> Ok Manifest.Spec.default_filters
  | Some f -> (
    try Ok (Manifest.Spec.filters_of_json f) with Failure msg -> Error msg)

let request_of_string s =
  match Json.parse s with
  | Error msg -> Error ("request is not JSON: " ^ msg)
  | Ok j -> (
    (match int_field "v" j with
    | Some v when v = version || v = version_batch -> Ok v
    | Some v -> Error (Printf.sprintf "unsupported protocol version %d" v)
    | None -> Error "missing protocol version")
    |> function
    | Error _ as e -> e
    | Ok v -> (
      match Option.value ~default:"predict" (str_field "op" j) with
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "predict" -> (
        match str_field "asm" j with
        | None -> Error "predict request missing asm"
        | Some asm -> (
          match filters_field j with
          | Error msg -> Error msg
          | Ok filters ->
            Ok
              (Predict
                 {
                   asm;
                   uarch = Option.value ~default:"hsw" (str_field "uarch" j);
                   deadline_ms = int_field "deadline_ms" j;
                   block_hex = str_field "block_hex" j;
                   filters;
                 })))
      | "predict_batch" -> (
        if v < version_batch then
          Error
            (Printf.sprintf "predict_batch requires protocol version %d"
               version_batch)
        else
          match Json.member "blocks" j with
          | None -> Error "predict_batch request missing blocks"
          | Some (Json.List []) -> Error "predict_batch with empty blocks"
          | Some (Json.List items) -> (
            let blocks =
              List.fold_left
                (fun acc item ->
                  match acc with
                  | Error _ as e -> e
                  | Ok acc -> (
                    match str_field "asm" item with
                    | None -> Error "batch block missing asm"
                    | Some asm ->
                      Ok
                        ({ bb_asm = asm; bb_block_hex = str_field "block_hex" item }
                        :: acc)))
                (Ok []) items
            in
            match blocks with
            | Error msg -> Error msg
            | Ok rev_blocks -> (
              match filters_field j with
              | Error msg -> Error msg
              | Ok filters ->
                Ok
                  (Predict_batch
                     {
                       pb_uarch =
                         Option.value ~default:"hsw" (str_field "uarch" j);
                       pb_deadline_ms = int_field "deadline_ms" j;
                       pb_filters = filters;
                       pb_blocks = List.rev rev_blocks;
                     })))
          | Some _ -> Error "predict_batch blocks must be an array")
      | op -> Error (Printf.sprintf "unknown op %S" op)))

(* Resolve a predict request into an engine job — the same parser,
   encoder and filter resolution as the CLI path. *)
let job_of_predict (p : predict) : (Engine.job, string) result =
  match Uarch.All.by_short p.uarch with
  | None -> Error (Printf.sprintf "unknown uarch %S" p.uarch)
  | Some uarch -> (
    match X86.Parser.block p.asm with
    | Error msg -> Error ("cannot parse block: " ^ msg)
    | Ok [] -> Error "empty block"
    | Ok block -> (
      let env = Manifest.Spec.environment_of_filters p.filters in
      let job = { Engine.env; uarch; block } in
      match p.block_hex with
      | None -> Ok job
      | Some hex ->
        let encoded =
          Store.Sha256.to_hex
            (Bytes.to_string (X86.Encoder.encode_block block))
        in
        if String.lowercase_ascii hex = encoded then Ok job
        else
          Error
            (Printf.sprintf
               "block_hex mismatch: asm encodes to %s, request carried %s"
               encoded hex)))

(* ------------------------------------------------------------------ *)
(* Canonical outcome rendering                                         *)
(* ------------------------------------------------------------------ *)

(* One rendering, used by the server for every predict response and by
   the load generator to verify byte-identity against a local engine:
   if the two ever disagree, the bytes differ. *)

let point_json (p : Harness.Profiler.point) =
  Json.Object
    [
      ("unroll", Json.Number (float_of_int p.unroll));
      ( "accepted_cycles",
        match p.accepted_cycles with
        | Some c -> Json.Number (float_of_int c)
        | None -> Json.Null );
      ("best_cycles", Json.Number (float_of_int p.best_cycles));
      ("faults", Json.Number (float_of_int p.faults));
      ("distinct_frames", Json.Number (float_of_int p.distinct_frames));
    ]

let outcome_json (o : Engine.outcome) =
  match o with
  | Ok (p : Harness.Profiler.profile) ->
    Json.Object
      ([
         ("status", Json.String "measured");
         ("accepted", Json.Bool p.accepted);
         ("throughput", Json.Number p.throughput);
       ]
      @ (match p.reject with
        | Some r ->
          [
            ( "reject",
              Json.String
                (Harness.Profiler.failure_to_string
                   (Harness.Profiler.Rejected r)) );
          ]
        | None -> [])
      @ [
          ("large", point_json p.large);
          ( "small",
            match p.small with Some s -> point_json s | None -> Json.Null );
          ( "factors",
            Json.Object
              [
                ("large", Json.Number (float_of_int p.factors.Harness.Unroll.large));
                ("small", Json.Number (float_of_int p.factors.Harness.Unroll.small));
              ] );
        ])
  | Error (Engine.Profiler_failure f) ->
    Json.Object
      [
        ("status", Json.String "failed");
        ("failure", Json.String (Harness.Profiler.failure_to_string f));
      ]
  | Error (Engine.Quarantined q) ->
    Json.Object
      [
        ("status", Json.String "quarantined");
        ("fingerprint", Json.String q.Engine.q_fingerprint);
        ("attempts", Json.Number (float_of_int q.Engine.q_attempts));
      ]

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type refusal = Overloaded | Deadline_exceeded | Bad_request | Shutting_down

let refusal_code = function
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Bad_request -> "bad_request"
  | Shutting_down -> "shutting_down"

let refusal_of_code = function
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "bad_request" -> Some Bad_request
  | "shutting_down" -> Some Shutting_down
  | _ -> None

type response =
  | Result of Json.t  (** canonical outcome object *)
  | Refused of refusal * string
  | Stats_reply of Json.t
  | Pong
  | Results of response list
      (** v2 batch answer: one [Result] or [Refused] slot per batch
          block, in request order *)

(* The version-less body of a single-predict answer — a batch slot.
   Sharing these fields with the top-level v1 rendering is what makes
   the "result" object of a batch slot byte-identical to the v1
   response for the same block. *)
let slot_fields = function
  | Result r -> [ ("status", Json.String "ok"); ("result", r) ]
  | Refused (kind, msg) ->
    [
      ("status", Json.String "error");
      ("error", Json.String (refusal_code kind));
      ("message", Json.String msg);
    ]
  | Stats_reply s -> [ ("status", Json.String "ok"); ("stats", s) ]
  | Pong -> [ ("status", Json.String "ok"); ("pong", Json.Bool true) ]
  | Results _ -> invalid_arg "Wire.slot_fields: nested batch"

let response_to_json = function
  | Results slots ->
    Json.Object
      [
        ("v", Json.Number (float_of_int version_batch));
        ("status", Json.String "ok");
        ("results", Json.List (List.map (fun s -> Json.Object (slot_fields s)) slots));
      ]
  | r -> Json.Object (("v", Json.Number (float_of_int version)) :: slot_fields r)

let response_to_string r = Json.to_string ~compact:true (response_to_json r)

let slot_of_json j =
  match str_field "status" j with
  | Some "ok" -> (
    match (Json.member "result" j, Json.member "stats" j) with
    | Some r, _ -> Ok (Result r)
    | None, Some s -> Ok (Stats_reply s)
    | None, None -> (
      match Json.member "pong" j with
      | Some _ -> Ok Pong
      | None -> Error "ok response carries neither result, stats nor pong"))
  | Some "error" -> (
    let msg = Option.value ~default:"" (str_field "message" j) in
    match Option.bind (str_field "error" j) refusal_of_code with
    | Some kind -> Ok (Refused (kind, msg))
    | None -> Error "error response with unknown error kind")
  | _ -> Error "response missing status"

let response_of_string s =
  match Json.parse s with
  | Error msg -> Error ("response is not JSON: " ^ msg)
  | Ok j -> (
    match Json.member "results" j with
    | Some (Json.List slots) ->
      List.fold_left
        (fun acc slot ->
          match acc with
          | Error _ as e -> e
          | Ok acc -> (
            match slot_of_json slot with
            | Ok s -> Ok (s :: acc)
            | Error _ as e -> e))
        (Ok []) slots
      |> Result.map (fun rev -> Results (List.rev rev))
    | Some _ -> Error "results must be an array"
    | None -> slot_of_json j)
