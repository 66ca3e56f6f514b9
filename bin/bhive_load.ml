(* bhive_load: corpus-replaying load generator for bhive_serve.

   N client threads each open one connection and replay the same
   benchmark corpus in the same order from index 0 — deliberately
   maximising duplicate concurrent requests, so a correct server shows
   a coalesce ratio above 1.0. With --batch N the replay rides the v2
   [predict_batch] op, N blocks per frame (per-slot accounting, frame
   latency attributed to each slot); --batch 1 (the default) is the
   plain v1 per-request path, so one load run can exercise either
   protocol version. Per-request latency is recorded client-side;
   after the load phase the server's counters are snapshotted over a
   [stats] request, and (with --verify) every distinct block's
   response is byte-compared against a local engine's rendering of the
   same job (always over v1 single predicts — so a batched load run
   plus --verify crosses the two wire versions against one server).

   The summary (--summary) is a bench_summary.json carrying a
   [serving] object, gated in CI by bhive_bench_diff:
   [serving.lost] and [serving.shed_after_accept] must be zero, and
   gates such as --gate 'serving.p99_ms <= 1000' or --gate
   'serving.requests_per_sec >= 0.8x' bound the service-level numbers.
   The manifest identity is [Manifest.Spec.bench] at the replayed
   scale (or the spec loaded from --manifest), so a load summary and a
   serving baseline from the same scale agree on their experiment id.

   Exit codes: 0 success; 1 lost requests or verification mismatches;
   2 invalid arguments / environment / connection failure. *)

open Cmdliner
module Json = Telemetry.Json

(* Per-thread tallies, merged after join — no locking on the hot path. *)
type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable lost : int;  (** sent but no well-formed response *)
  mutable r_overloaded : int;
  mutable r_deadline : int;
  mutable r_shutting : int;
  mutable r_bad : int;
  mutable lat_ms : float list;  (** latencies of [ok] responses *)
  mutable frames : int;  (** wire frames carrying predict work *)
  batch_hist : (int, int) Hashtbl.t;  (** batch size -> frame count *)
}

let fresh_tally () =
  {
    sent = 0;
    ok = 0;
    lost = 0;
    r_overloaded = 0;
    r_deadline = 0;
    r_shutting = 0;
    r_bad = 0;
    lat_ms = [];
    frames = 0;
    batch_hist = Hashtbl.create 8;
  }

let predict_request ~uarch ~deadline_ms (b : Corpus.Block.t) =
  Serve.Wire.Predict
    {
      Serve.Wire.asm = Corpus.Block.text b;
      uarch;
      deadline_ms;
      block_hex = None;
      filters = Manifest.Spec.default_filters;
    }

let batch_request ~uarch ~deadline_ms blocks =
  Serve.Wire.Predict_batch
    {
      Serve.Wire.pb_uarch = uarch;
      pb_deadline_ms = deadline_ms;
      pb_filters = Manifest.Spec.default_filters;
      pb_blocks =
        List.map
          (fun b ->
            {
              Serve.Wire.bb_asm = Corpus.Block.text b;
              bb_block_hex = None;
            })
          blocks;
    }

(* Split into consecutive chunks of at most [n]. *)
let chunks n lst =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 lst

let count_refusal (t : tally) = function
  | Serve.Wire.Overloaded -> t.r_overloaded <- t.r_overloaded + 1
  | Serve.Wire.Deadline_exceeded -> t.r_deadline <- t.r_deadline + 1
  | Serve.Wire.Shutting_down -> t.r_shutting <- t.r_shutting + 1
  | Serve.Wire.Bad_request -> t.r_bad <- t.r_bad + 1

(* One thread's replay: [repeat] passes over the whole corpus, all
   threads in the same order. A transport error loses that request; the
   next frame reconnects and goes out on the new connection, or is lost
   too if the reconnect fails, so every frame counts in [sent].
   Refusals are counted by kind and are not losses. Only
   the initial connect retries with backoff — a mid-run reconnect
   fails immediately, so a killed server drains the remaining workload
   as fast losses instead of minutes of per-request retry sleeps.
   Each frame is a [(k, payload)] pair: a v1 predict ([batch] = 1,
   k = 1) whose answer reads as a one-slot list, or a v2 predict_batch
   of k blocks. Each slot of a frame is accounted exactly like a single
   request would be, with the frame's round-trip latency attributed to
   every slot (that IS the latency a batched caller observes per
   answer).

   [frames] are request payloads pre-encoded once by the caller and
   shared read-only by every thread: the generator pays the JSON
   encoding per distinct frame, not per send, so on a box where client
   and server share cores the measured throughput is the server's, not
   the generator's. *)
let replay ~socket ~repeat ~batch ~frames (t : tally) =
  let conn = ref None in
  let connect ?(retries = 0) () =
    match Serve.Client.connect ~retries ~retry_interval:0.1 socket with
    | Ok c ->
      conn := Some c;
      true
    | Error _ ->
      conn := None;
      false
  in
  ignore (connect ~retries:20 ());
  let rec send ((k, payload) as frame) =
    match !conn with
    | None ->
      if connect () then send frame
      else (
        t.sent <- t.sent + k;
        t.lost <- t.lost + k)
    | Some c -> (
      t.sent <- t.sent + k;
      t.frames <- t.frames + 1;
      Hashtbl.replace t.batch_hist k
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.batch_hist k));
      let t0 = Telemetry.Trace.now_ns () in
      let slots =
        match Serve.Client.request_raw c payload with
        | Ok (Serve.Wire.Result _ as r) when batch = 1 -> Some [ r ]
        | Ok (Serve.Wire.Results slots)
          when batch > 1 && List.length slots = k ->
          Some slots
        | Ok (Serve.Wire.Refused _ as r) ->
          (* a v1 refusal, or a whole-frame one (e.g. draining before
             parse) *)
          Some (List.init k (fun _ -> r))
        | Ok _ | Error _ -> None
      in
      match slots with
      | Some slots ->
        let dt =
          Int64.to_float (Int64.sub (Telemetry.Trace.now_ns ()) t0) /. 1e6
        in
        List.iter
          (function
            | Serve.Wire.Result _ ->
              t.ok <- t.ok + 1;
              t.lat_ms <- dt :: t.lat_ms
            | Serve.Wire.Refused (kind, _) -> count_refusal t kind
            | _ -> t.lost <- t.lost + 1)
          slots
      | None ->
        t.lost <- t.lost + k;
        Serve.Client.close c;
        conn := None)
  in
  for _ = 1 to repeat do
    List.iter send frames
  done;
  Option.iter Serve.Client.close !conn

(* Exact percentile over the sorted latency sample: the value at rank
   ceil(q * n) (1-based), i.e. the smallest latency >= q of the sample. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Byte-identity verification: replay each distinct block once over a
   fresh connection and compare the server's rendered outcome with a
   local engine's rendering of the same job — same parser, same
   environment resolution, same canonical rendering, so any
   disagreement is a real divergence between daemon and CLI answers. *)
let verify_blocks ~socket ~uarch blocks =
  match Serve.Client.connect ~retries:10 socket with
  | Error msg ->
    prerr_endline ("bhive_load: verify: " ^ msg);
    (0, List.length blocks)
  | Ok c ->
    let engine = Engine.create () in
    let udesc = Option.get (Uarch.All.by_short uarch) in
    let verified = ref 0 and mismatches = ref 0 in
    List.iter
      (fun b ->
        let remote =
          match
            Serve.Client.request c
              (predict_request ~uarch ~deadline_ms:None b)
          with
          | Ok (Serve.Wire.Result r) -> Some (Json.to_string ~compact:true r)
          | _ -> None
        in
        let local =
          let job =
            {
              Engine.env =
                Manifest.Spec.environment_of_filters
                  Manifest.Spec.default_filters;
              uarch = udesc;
              block = b.Corpus.Block.insts;
            }
          in
          let batch = Engine.run_batch engine [ job ] in
          Json.to_string ~compact:true
            (Serve.Wire.outcome_json batch.Engine.outcomes.(0))
        in
        match remote with
        | Some r when r = local -> incr verified
        | Some r ->
          incr mismatches;
          if !mismatches <= 3 then
            Printf.eprintf
              "bhive_load: verify mismatch on %s:\n  server %s\n  local  %s\n"
              b.Corpus.Block.id r local
        | None -> incr mismatches)
      blocks;
    Serve.Client.close c;
    (!verified, !mismatches)

let run socket concurrency repeat scale uarch deadline_ms batch manifest verify
    summary_path =
  (match Result.bind (Engine.validate_env ()) Telemetry.Trace.init with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("bhive_load: " ^ msg);
    exit 2);
  if concurrency < 1 || repeat < 1 then begin
    prerr_endline "bhive_load: --concurrency and --repeat must be >= 1";
    exit 2
  end;
  if batch < 1 then begin
    prerr_endline "bhive_load: --batch must be >= 1";
    exit 2
  end;
  if Uarch.All.by_short uarch = None then begin
    Printf.eprintf "bhive_load: unknown uarch %S\n" uarch;
    exit 2
  end;
  let config =
    let c = Corpus.Suite.config_from_env () in
    match scale with
    | Some s when s >= 1 -> { c with Corpus.Suite.scale = s }
    | Some _ ->
      prerr_endline "bhive_load: --scale must be >= 1";
      exit 2
    | None -> c
  in
  (* --manifest pins the workload to a checked-in spec: its corpus
     scale wins over --scale/$BHIVE_SCALE, and the summary carries its
     ids, so a CI gate and a local run name the same experiment *)
  let spec, config =
    match manifest with
    | None -> (Manifest.Spec.bench ~scale:config.Corpus.Suite.scale (), config)
    | Some path -> (
      match Manifest.Spec.load path with
      | Error msg ->
        prerr_endline ("bhive_load: " ^ msg);
        exit 2
      | Ok spec ->
        let mscale = spec.Manifest.Spec.corpus.Manifest.Spec.scale in
        (spec, { config with Corpus.Suite.scale = mscale }))
  in
  let blocks = Corpus.Suite.generate ~config () in
  Printf.eprintf
    "bhive_load: %d blocks x %d repeats x %d threads (batch %d) against %s\n%!"
    (List.length blocks) repeat concurrency batch socket;
  (* liveness probe before spawning the fleet: a missing daemon is a
     clean exit 2, not [concurrency] threads of connect noise *)
  (match Serve.Client.connect ~retries:50 ~retry_interval:0.1 socket with
  | Error msg ->
    prerr_endline ("bhive_load: " ^ msg);
    exit 2
  | Ok c -> (
    match Serve.Client.request c Serve.Wire.Ping with
    | Ok Serve.Wire.Pong -> Serve.Client.close c
    | Ok _ | Error _ ->
      prerr_endline "bhive_load: server did not answer ping";
      exit 2));
  (* encode every frame once, up front; the threads replay shared
     read-only payload strings *)
  let frames =
    List.map
      (fun chunk ->
        ( List.length chunk,
          Serve.Wire.request_to_string
            (if batch > 1 then batch_request ~uarch ~deadline_ms chunk
             else predict_request ~uarch ~deadline_ms (List.hd chunk)) ))
      (chunks batch blocks)
  in
  let tallies = Array.init concurrency (fun _ -> fresh_tally ()) in
  (* a daemon that dies mid-request must show as lost requests, not
     end the generator: with SIGPIPE ignored, a write to its closed
     socket fails with EPIPE, which [replay] counts as a loss *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = Telemetry.Trace.now_ns () in
  let threads =
    Array.mapi
      (fun i t ->
        Thread.create
          (fun () -> replay ~socket ~repeat ~batch ~frames t)
          (ignore i))
      tallies
  in
  Array.iter Thread.join threads;
  let wall_seconds =
    Int64.to_float (Int64.sub (Telemetry.Trace.now_ns ()) t0) /. 1e9
  in
  (* server counters, snapshotted before verification so the verify
     pass's extra (uncoalesced, warm) requests do not dilute the load
     phase's coalesce ratio *)
  let server_stats =
    match Serve.Client.connect ~retries:10 socket with
    | Error msg ->
      prerr_endline ("bhive_load: stats: " ^ msg);
      None
    | Ok c ->
      let r =
        match Serve.Client.request c Serve.Wire.Stats with
        | Ok (Serve.Wire.Stats_reply s) -> Some s
        | _ -> None
      in
      Serve.Client.close c;
      r
  in
  let serving_counter name =
    Option.bind server_stats (fun s -> Json.path [ "serving"; name ] s)
    |> Fun.flip Option.bind Json.number
    |> Option.value ~default:0.0
  in
  let coalesce_ratio =
    let accepted = serving_counter "accepted" in
    let coalesced = serving_counter "coalesced" in
    if accepted > 0.0 then (accepted +. coalesced) /. accepted else 0.0
  in
  let shed_after_accept =
    serving_counter "shed_deadline" +. serving_counter "shed_drain"
  in
  let total = fresh_tally () in
  Array.iter
    (fun t ->
      total.sent <- total.sent + t.sent;
      total.ok <- total.ok + t.ok;
      total.lost <- total.lost + t.lost;
      total.r_overloaded <- total.r_overloaded + t.r_overloaded;
      total.r_deadline <- total.r_deadline + t.r_deadline;
      total.r_shutting <- total.r_shutting + t.r_shutting;
      total.r_bad <- total.r_bad + t.r_bad;
      total.lat_ms <- List.rev_append t.lat_ms total.lat_ms;
      total.frames <- total.frames + t.frames;
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace total.batch_hist k
            (v + Option.value ~default:0 (Hashtbl.find_opt total.batch_hist k)))
        t.batch_hist)
    tallies;
  let sorted = Array.of_list total.lat_ms in
  Array.sort compare sorted;
  let mean =
    if Array.length sorted = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 sorted /. float_of_int (Array.length sorted)
  in
  let verified, mismatches =
    if verify then verify_blocks ~socket ~uarch blocks else (0, 0)
  in
  let p50 = percentile sorted 0.50
  and p99 = percentile sorted 0.99
  and p999 = percentile sorted 0.999
  and pmax = percentile sorted 1.0 in
  Printf.eprintf
    "bhive_load: %d sent, %d ok, %d lost, %d refused \
     (overloaded %d, deadline %d, shutting_down %d, bad %d)\n\
     bhive_load: p50 %.2f ms, p99 %.2f ms, p99.9 %.2f ms, max %.2f ms, \
     %.1f req/s, coalesce %.3f\n\
     %!"
    total.sent total.ok total.lost
    (total.r_overloaded + total.r_deadline + total.r_shutting + total.r_bad)
    total.r_overloaded total.r_deadline total.r_shutting total.r_bad p50 p99
    p999 pmax
    (if wall_seconds > 0.0 then float_of_int total.ok /. wall_seconds else 0.0)
    coalesce_ratio;
  if verify then
    Printf.eprintf "bhive_load: verified %d blocks, %d mismatches\n%!" verified
      mismatches;
  (match summary_path with
  | None -> ()
  | Some path ->
    let rev =
      match Sys.getenv_opt "BHIVE_REV" with
      | Some r when String.trim r <> "" -> String.trim r
      | _ -> "unknown"
    in
    let n name v = (name, Json.Number (float_of_int v)) in
    let f name v = (name, Json.Number v) in
    let rps =
      if wall_seconds > 0.0 then float_of_int total.ok /. wall_seconds else 0.0
    in
    let histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) total.batch_hist []
      |> List.sort compare
      |> List.map (fun (k, v) ->
             (string_of_int k, Json.Number (float_of_int v)))
    in
    let serving =
      Json.Object
        ([
           n "concurrency" concurrency;
           n "repeat" repeat;
           n "requests" total.sent;
           n "ok" total.ok;
           n "lost" total.lost;
           ( "refused",
             Json.Object
               [
                 n "overloaded" total.r_overloaded;
                 n "deadline_exceeded" total.r_deadline;
                 n "shutting_down" total.r_shutting;
                 n "bad_request" total.r_bad;
               ] );
           f "shed_after_accept" shed_after_accept;
           f "coalesce_ratio" coalesce_ratio;
           f "p50_ms" p50;
           f "p99_ms" p99;
           f "p999_ms" p999;
           f "max_ms" pmax;
           f "mean_ms" mean;
           f "requests_per_sec" rps;
           f "wall_seconds" wall_seconds;
           ( "batch",
             Json.Object
               [
                 n "size" batch;
                 n "frames" total.frames;
                 ("histogram", Json.Object histogram);
               ] );
           n "verified" verified;
           n "mismatches" mismatches;
         ]
        @
        match server_stats with
        | Some s -> [ ("server", s) ]
        | None -> [])
    in
    let doc =
      Json.Object
        [
          ( "schema_version",
            Json.Number Telemetry.Bench_diff.schema_version );
          ("scale", Json.Number (float_of_int config.Corpus.Suite.scale));
          ("rev", Json.String rev);
          ("name", Json.String "serve-load");
          ( "manifest",
            Json.Object
              [
                ("id", Json.String (Manifest.Spec.id spec));
                ("experiment", Json.String (Manifest.Spec.experiment_id spec));
              ] );
          ("serving", serving);
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Json.to_string doc);
        Out_channel.output_char oc '\n'));
  if total.lost > 0 || mismatches > 0 then exit 1;
  exit 0

let cmd =
  let socket =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Unix socket of a running bhive_serve.")
  in
  let concurrency =
    Arg.(
      value & opt int 32
      & info [ "c"; "concurrency" ] ~docv:"N"
          ~doc:"Client threads, each with its own connection.")
  in
  let repeat =
    Arg.(
      value & opt int 2
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Passes over the corpus per thread.")
  in
  let scale =
    Arg.(
      value
      & opt (some int) None
      & info [ "scale" ] ~docv:"N"
          ~doc:
            "Corpus scale (1/N of the paper's block counts). Defaults to \
             \\$BHIVE_SCALE.")
  in
  let uarch =
    Arg.(
      value & opt string "hsw"
      & info [ "uarch" ] ~docv:"UARCH" ~doc:"Microarchitecture short name.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Attach a per-request deadline; requests dispatched after it \
             expires are refused with $(b,deadline_exceeded).")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Blocks per wire frame. 1 (default) replays over v1 single \
             $(b,predict) requests; N >= 2 rides the v2 \
             $(b,predict_batch) op, N blocks per frame.")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"PATH"
          ~doc:
            "Load the workload spec from a manifest file; its corpus scale \
             wins over $(b,--scale), and the summary carries its ids.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "After the load phase, replay each distinct block once and \
             byte-compare the server's response rendering against a local \
             engine's. Mismatches exit 1.")
  in
  let summary =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"PATH"
          ~doc:
            "Write a bench_summary.json with a $(b,serving) object (gate \
             it with bhive_bench_diff --gate).")
  in
  let term =
    Term.(
      const run $ socket $ concurrency $ repeat $ scale $ uarch $ deadline_ms
      $ batch $ manifest $ verify $ summary)
  in
  Cmd.v
    (Cmd.info "bhive_load"
       ~doc:
         "Replay the benchmark corpus against a bhive_serve daemon at \
          configurable concurrency; report latency percentiles, coalescing \
          and shed counts.")
    term

let () = Cli_common.eval cmd
