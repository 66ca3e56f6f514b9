(* The traced replay: each op's inputs are pushed again through the
   public functions the engine and the daemon call, one span per call
   (Perfbench.Spans). Every layer is replayed on every workload's
   inputs, so every per-layer metric is a measurement; only the layers
   on a workload's own path enter its decomposition (see
   [unaccounted_share]). *)

open Perfbench

let span = Spans.with_span

(* Every [n / k]-th element, at most [k] of them. *)
let sample k l =
  let n = List.length l in
  if n <= k then l
  else
    let step = float_of_int n /. float_of_int k in
    let a = Array.of_list l in
    List.init k (fun i -> a.(int_of_float (float_of_int i *. step)))

(* The measuring process's state before each (re)start; what
   Harness.Mapping builds internally. *)
let fresh_state (env : Harness.Environment.t) =
  let st = Xsem.Machine_state.create () in
  Xsem.Machine_state.init_constant st (Harness.Environment.fill_value_u64 env);
  st.ftz <- env.disable_underflow;
  st

type profile_counts = {
  mutable mappings : int;
  mutable mapping_runs : int;
  mutable core_ns : float;
  mutable cycles : int;
  mutable sims : int;  (** pipeline.blocks delta over the profile calls *)
}

let pipeline_blocks = Telemetry.Metrics.counter "pipeline.blocks"

(* Harness.Profiler.profile per job, then the same job taken apart: per
   unroll point, the mapping monitor, one executor run of the mapped
   block, and the warm-up plus timed simulation (trace build, then core
   cycle loop) the profiler performs. *)
let profile_layers (jobs : Engine.job list) =
  let c = { mappings = 0; mapping_runs = 0; core_ns = 0.0; cycles = 0; sims = 0 } in
  List.iteri
    (fun i (j : Engine.job) ->
      Spans.set_op i;
      let b0 = Telemetry.Metrics.value pipeline_blocks in
      ignore (span "harness.profile" (fun () -> Harness.Profiler.profile j.env j.uarch j.block));
      c.sims <- c.sims + Telemetry.Metrics.value pipeline_blocks - b0;
      let f = Harness.Unroll.choose j.env.unroll j.block in
      let machine = Pipeline.Machine.create j.uarch in
      let rec points = function
        | [] -> ()
        | unroll :: rest -> (
          match span "harness.mapping" (fun () -> Harness.Mapping.run j.env j.block ~unroll) with
          | Error _ -> ()
          | Ok m ->
            c.mappings <- c.mappings + 1;
            c.mapping_runs <- c.mapping_runs + m.faults + 1;
            ignore
              (span "xsem.run" (fun () ->
                   Xsem.Executor.run_unrolled (fresh_state j.env) m.mmu j.block ~unroll));
            Pipeline.Machine.reset machine;
            for _ = 1 to 2 do
              let trace =
                span "pipeline.trace" (fun () -> Pipeline.Trace.of_steps j.uarch m.steps)
              in
              let t0 = Common.now_ns () in
              let r =
                span "pipeline.core" (fun () ->
                    Pipeline.Core.simulate ~scratch:machine.scratch j.uarch ~l1d:machine.l1d
                      ~l1i:machine.l1i ~l2:machine.l2 trace)
              in
              c.core_ns <- c.core_ns +. Common.ns_since t0;
              c.cycles <- c.cycles + r.cycles
            done;
            points rest)
      in
      points (if f.small = 0 then [ f.large ] else [ f.large; f.small ]))
    jobs;
  c

let fingerprint_layer jobs =
  List.iteri
    (fun i j ->
      Spans.set_op i;
      ignore (span "engine.fingerprint" (fun () -> Engine.fingerprint j)))
    jobs

(* Store.put into a fresh store; then, through a re-opened handle (the
   warm read path a re-run takes), Store.get hits and payload decode of
   the same records; then [opens] re-opens of [open_dir]. *)
let store_layers ~dir ~open_dir ~opens (jobs : (Engine.job * Engine.outcome) list) =
  let keyed =
    List.map
      (fun ((j : Engine.job), o) -> (Engine.fingerprint j, Engine.generation j.uarch, o))
      jobs
  in
  let st = Store.open_ dir in
  List.iteri
    (fun i (key, gen, o) ->
      Spans.set_op i;
      let payload = Marshal.to_string (o : Engine.outcome) [] in
      ignore (span "store.put" (fun () -> Store.put st ~key ~gen payload)))
    keyed;
  Store.close st;
  let st = Store.open_ dir in
  List.iteri
    (fun i (key, gen, o) ->
      Spans.set_op i;
      match span "store.get" (fun () -> Store.get st ~key ~gen) with
      | Store.Hit payload ->
        let back =
          span "engine.decode" (fun () -> (Marshal.from_string payload 0 : Engine.outcome))
        in
        if compare back o <> 0 then failwith "replay: store round trip changed an outcome"
      | Store.Stale | Store.Miss -> failwith "replay: store lost a record")
    keyed;
  Store.close st;
  for i = 1 to opens do
    Spans.set_op i;
    Store.close (span "store.open" (fun () -> Store.open_ open_dir))
  done

let predict_of (b : Corpus.Block.t) ~uarch =
  {
    Serve.Wire.asm = Corpus.Block.text b;
    uarch;
    deadline_ms = None;
    block_hex = None;
    filters = Manifest.Spec.default_filters;
  }

let v1_frame ~uarch b = Serve.Wire.request_to_string (Serve.Wire.Predict (predict_of b ~uarch))

let v2_frame ~uarch blocks =
  Serve.Wire.request_to_string
    (Serve.Wire.Predict_batch
       {
         pb_uarch = uarch;
         pb_deadline_ms = None;
         pb_filters = Manifest.Spec.default_filters;
         pb_blocks =
           List.map
             (fun b -> { Serve.Wire.bb_asm = Corpus.Block.text b; bb_block_hex = None })
             blocks;
       })

let rec chunks n l =
  if l = [] then []
  else
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

(* The daemon's per-request functions, on the client's frames: request
   decode per frame, resolution (parse, encode check, fingerprint) and
   the parser alone per block, outcome render per slot, client-side
   response decode per frame, and the dispatcher's memo-hit peek, with
   the memo filled from the records [store_layers] left in [store_dir]. *)
let serve_layers ~uarch ~batch ~store_dir (items : (Corpus.Block.t * Engine.outcome) list) =
  let groups = chunks batch items in
  List.iteri
    (fun i g ->
      Spans.set_op i;
      let frame =
        if batch = 1 then v1_frame ~uarch (fst (List.hd g)) else v2_frame ~uarch (List.map fst g)
      in
      (match span "serve.request_decode" (fun () -> Serve.Wire.request_of_string frame) with
      | Ok _ -> ()
      | Error msg -> failwith ("replay: request decode: " ^ msg));
      let reply =
        span "serve.render" (fun () ->
            let slots = List.map (fun (_, o) -> Serve.Wire.Result (Serve.Wire.outcome_json o)) g in
            Serve.Wire.response_to_string
              (if batch = 1 then List.hd slots else Serve.Wire.Results slots))
      in
      match span "serve.response_decode" (fun () -> Serve.Wire.response_of_string reply) with
      | Ok _ -> ()
      | Error msg -> failwith ("replay: response decode: " ^ msg))
    groups;
  let store = Store.open_ store_dir in
  let engine = Engine.create ~jobs:1 ~faults:Faultsim.none ~store () in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  List.iteri
    (fun i ((b : Corpus.Block.t), _) ->
      Spans.set_op i;
      let p = predict_of b ~uarch in
      ignore (span "x86.parse" (fun () -> X86.Parser.block p.asm));
      match
        span "serve.resolve_miss" (fun () ->
            Result.map (fun j -> (j, Engine.fingerprint j)) (Serve.Wire.job_of_predict p))
      with
      | Error msg -> failwith ("replay: resolve: " ^ msg)
      | Ok (job, _) -> (
        (* the first peek reads the store and fills the memo *)
        if Engine.peek engine job = None then failwith "replay: store peek missed";
        match span "serve.peek" (fun () -> Engine.peek engine job) with
        | Some _ -> ()
        | None -> failwith "replay: memo peek missed"))
    items

(* Seconds the engine's workers spent executing jobs. *)
let worker_busy_s engine =
  List.fold_left
    (fun a (w : Engine.worker_stat) -> a +. w.busy_seconds)
    0.0 (Engine.worker_stats engine)

(* Per-layer self time per op, microseconds: a layer's whole self time
   divided by the ops it was replayed for. *)
let per_op_us totals name ~ops =
  match Hashtbl.find_opt totals name with
  | Some (_, ns) when ops > 0 -> ns /. float_of_int ops /. 1e3
  | _ -> 0.0

(* The share of the untraced per-op wall time that the on-path layers
   do not cover. [parts] are (layer, per-op self microseconds,
   concurrency): a layer run by [k] callers at once contributes 1/k of
   its self time to each op's wall time. Prints the decomposition. *)
let unaccounted_share ~op_wall_us parts =
  let covered = List.map (fun (name, us, k) -> (name, us /. float_of_int k)) parts in
  let share = 1.0 -. (List.fold_left (fun a (_, us) -> a +. us) 0.0 covered /. op_wall_us) in
  Common.say "per-op wall %.3f us = %s + unaccounted %.3f us (%.4f)" op_wall_us
    (String.concat " + " (List.map (fun (n, us) -> Printf.sprintf "%s %.3f" n us) covered))
    (share *. op_wall_us) share;
  share

type replay = {
  totals : (string, int * float) Hashtbl.t;  (** per span name: calls, self ns *)
  counts : profile_counts;
  n_profiled : int;
  n_slots : int;  (** serve items replayed *)
  busy_share : float;
}

(* Replay every layer: [profile_jobs] through the profiler and its
   parts, [fp_jobs] through the fingerprint, [items] (jobs with their
   known outcomes) through the store, [serve_items] through the
   daemon's functions in frames of [batch], and [opens] re-opens of
   [open_dir] (default: the replay's own store). Without [busy_share],
   a 2-worker engine resolves [profile_jobs] cold to measure it. *)
let replay args ?busy_share ?open_dir ~profile_jobs ~fp_jobs ~items ~serve_items ~batch () =
  let busy_share =
    match busy_share with
    | Some s -> s
    | None ->
      let engine = Common.new_engine () in
      let t0 = Common.now_ns () in
      ignore (Engine.run_batch engine profile_jobs);
      worker_busy_s engine /. (float_of_int (Engine.jobs engine) *. Common.s_since t0)
  in
  let counts = profile_layers profile_jobs in
  fingerprint_layer fp_jobs;
  let dir = Common.fresh_dir args "replay-store" in
  store_layers ~dir ~open_dir:(Option.value open_dir ~default:dir) ~opens:20 items;
  serve_layers ~uarch:"hsw" ~batch ~store_dir:dir serve_items;
  {
    totals = Spans.self_times !Spans.recorded;
    counts;
    n_profiled = List.length profile_jobs;
    n_slots = List.length serve_items;
    busy_share;
  }

let us r name = Spans.mean_self_us r.totals name

(* A mean request_raw round trip (us) less the serve-layer self times
   on the client's frames: socket I/O and thread hand-offs. *)
let rtt_unaccounted r rtt =
  rtt -. us r "serve.request_decode" -. us r "serve.response_decode"
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The per-layer metrics every workload's replay yields. *)
let metrics r =
  let c = r.counts in
  [
    ("harness.profile_us", us r "harness.profile", "us");
    ("harness.mapping_us", per_op_us r.totals "harness.mapping" ~ops:r.n_profiled, "us");
    ("harness.mapping_runs", ratio c.mapping_runs c.mappings, "count");
    ("xsem.run_us", us r "xsem.run", "us");
    ("pipeline.trace_us", us r "pipeline.trace", "us");
    ("pipeline.core_us", us r "pipeline.core", "us");
    ("pipeline.sims_per_op", ratio c.sims r.n_profiled, "count");
    ( "pipeline.ns_per_cycle",
      (if c.cycles = 0 then 0.0 else c.core_ns /. float_of_int c.cycles),
      "ns" );
    ("engine.worker_busy_share", r.busy_share, "ratio");
    ("store.put_us", us r "store.put", "us");
    ("engine.fingerprint_us", us r "engine.fingerprint", "us");
    ("store.get_us", us r "store.get", "us");
    ("engine.decode_us", us r "engine.decode", "us");
    ("store.open_ms", us r "store.open" /. 1e3, "ms");
    ("serve.request_decode_us", us r "serve.request_decode", "us");
    ("serve.render_us", per_op_us r.totals "serve.render" ~ops:r.n_slots, "us");
    ("serve.response_decode_us", us r "serve.response_decode", "us");
    ("serve.resolve_miss_us", us r "serve.resolve_miss", "us");
    ("x86.parse_us", us r "x86.parse", "us");
    ("serve.peek_us", us r "serve.peek", "us");
  ]
