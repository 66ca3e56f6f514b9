(* serve-hot and serve-batch: the shipped bhive_serve daemon as a child
   process (one shard, fresh store and socket), driven through
   Serve.Client by closed-loop connections that each wait for their
   reply. *)

open Common
module S = Perfbench.Stats
module Json = Telemetry.Json

(* The calling thread's CPU affinity as a mask, bit i for CPU i
   (perfbench/affinity.c). Threads and processes it starts inherit it. *)
external get_affinity : unit -> int = "perfbench_get_affinity"
external set_affinity : int -> unit = "perfbench_set_affinity"

(* Where the two sides of a split run go: the daemon on the lowest core
   the benchmark may use, the connection on the next (the same core on a
   one-core box). Left to the scheduler, a one-connection ping-pong is
   co-located for some stretches and split for others, and a round trip
   then costs about a third more split than co-located. *)
type cores = { daemon : int; client : int }

let split_cores () =
  let all = get_affinity () in
  let low = all land -all in
  let rest = all land lnot low in
  { daemon = low; client = (if rest = 0 then low else rest land -rest) }

(* Distinct hsw blocks replayed; well under the daemon's 8192-entry
   resolve cache, which is cleared wholesale when full. *)
let working_set = 128
let serve_scale = 1000

type daemon = { pid : int; socket : string; log : string }

let live : daemon list ref = ref []

(* SIGTERM and wait; a daemon that does not exit 0 within 30 s is
   killed and reported. *)
let stop d =
  live := List.filter (fun x -> x != d) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  let t0 = now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when s_since t0 < 30.0 ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      Error "daemon ignored SIGTERM for 30 s"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "daemon exited %d" n)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "daemon killed by signal %d" n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let stop_all () = List.iter (fun d -> ignore (stop d)) !live

let stop_exn d = match stop d with Ok () -> () | Error msg -> failwith msg

(* Start a daemon on a fresh store and socket (relative paths: the
   socket path length limit does not depend on where the checkout
   lives), on [cores.daemon] if given, and wait for its first pong.
   [gc_stats] makes the runtime print its GC statistics at exit. *)
let start ?cores args ~gc_stats =
  let dir = fresh_dir args "serve" in
  let socket = Filename.concat dir "s.sock" in
  let log = Filename.concat dir "daemon.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    [| args.serve_exe; socket; "--store"; Filename.concat dir "store"; "--shards"; "1" |]
  in
  let extra = if gc_stats then [ "OCAMLRUNPARAM=v=0x400" ] else [] in
  let spawn () = Unix.create_process_env args.serve_exe argv (child_env ~extra ()) null out out in
  let pid =
    match cores with
    | None -> spawn ()
    | Some c ->
      let mask = get_affinity () in
      set_affinity c.daemon;
      Fun.protect ~finally:(fun () -> set_affinity mask) spawn
  in
  Unix.close out;
  Unix.close null;
  let d = { pid; socket; log } in
  live := d :: !live;
  let t0 = now_ns () in
  let rec pong () =
    match Serve.Client.connect socket with
    | Ok c -> (
      match Serve.Client.request c Serve.Wire.Ping with
      | Ok Serve.Wire.Pong -> c
      | _ -> failwith "daemon did not answer ping")
    | Error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun x -> x != d) !live;
        failwith "daemon exited before answering"
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if s_since t0 > 30.0 then failwith "daemon did not listen within 30 s";
      Unix.sleepf 0.005;
      pong ()
  in
  (d, pong ())

let stats_of socket =
  match Serve.Client.connect socket with
  | Error msg -> failwith msg
  | Ok c ->
    let r = Serve.Client.request c Serve.Wire.Stats in
    Serve.Client.close c;
    match r with
    | Ok (Serve.Wire.Stats_reply s) ->
      fun path ->
        Option.bind (Json.path path s) Json.number |> Option.value ~default:0.0 |> int_of_float
    | _ -> failwith "daemon did not answer stats"

(* GC statistics the runtime printed at exit (OCAMLRUNPARAM=v=0x400). *)
let exit_gc log =
  let field name =
    In_channel.with_open_text log (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> failwith ("no " ^ name ^ " in the daemon's exit statistics")
          | Some l -> (
            match Scanf.sscanf l "%s@: %f" (fun k v -> (k, v)) with
            | k, v when k = name -> v
            | _ -> go ()
            | exception _ -> go ())
        in
        go ())
  in
  {
    minor_words = field "minor_words";
    major_collections = int_of_float (field "major_collections");
  }

(* A frame of the replay: its encoded request and its block count. *)
type frame = { payload : string; slots : int }

let frames ~batch blocks =
  Array.of_list
    (List.map
       (fun g ->
         {
           payload =
             (if batch = 1 then Layers.v1_frame ~uarch:"hsw" (List.hd g)
              else Layers.v2_frame ~uarch:"hsw" g);
           slots = List.length g;
         })
       (Layers.chunks batch blocks))

(* The canonical result of each slot of a reply, in order. *)
let slots_of = function
  | Serve.Wire.Results l -> l
  | r -> [ r ]

(* Priming pass: every frame once; the replies become the reference
   every later reply to the same frame must equal. *)
let prime conn frames =
  Array.map
    (fun f ->
      match Serve.Client.request_raw conn f.payload with
      | Ok r
        when List.length (slots_of r) = f.slots
             && List.for_all
                  (function Serve.Wire.Result _ -> true | _ -> false)
                  (slots_of r) ->
        r
      | Ok _ -> failwith "priming: a slot was refused"
      | Error msg -> failwith ("priming: " ^ msg))
    frames

type tally = {
  mutable ops : int;
  mutable refused : int;
  mutable lost : int;
  mutable mismatched : int;
  events : S.Events.t;  (** per answered frame: completion, results, round trip *)
  mutable rtts : (int64 * int64) list;  (** traced phase: request_raw spans *)
}

let new_tally () =
  { ops = 0; refused = 0; lost = 0; mismatched = 0; events = S.Events.create (); rtts = [] }

(* One closed-loop connection: send a frame, wait, check, repeat, until
   [deadline]. Threads start at different offsets of the frame list. *)
let client ~cores ~socket ~frames ~first ~start ~deadline ~traced t =
  Option.iter (fun c -> set_affinity c.client) cores;
  let conn = ref (Serve.Client.connect socket) in
  let i = ref start in
  let n = Array.length frames in
  while Int64.compare (now_ns ()) deadline < 0 do
    let k = !i in
    let f = frames.(k) in
    i := (k + 1) mod n;
    t.ops <- t.ops + f.slots;
    match !conn with
    | Error _ ->
      t.lost <- t.lost + f.slots;
      conn := Serve.Client.connect socket
    | Ok c -> (
      let t0 = now_ns () in
      let r = Serve.Client.request_raw c f.payload in
      let t1 = now_ns () in
      match r with
      | Ok reply ->
        if traced then t.rtts <- (t0, t1) :: t.rtts;
        let got = slots_of reply and want = slots_of first.(k) in
        if List.length got <> f.slots then t.lost <- t.lost + f.slots
        else begin
          let answered = ref 0 in
          List.iter2
            (fun g w ->
              match g with
              | Serve.Wire.Result _ ->
                incr answered;
                if compare g w <> 0 then t.mismatched <- t.mismatched + 1
              | Serve.Wire.Refused _ -> t.refused <- t.refused + 1
              | _ -> t.lost <- t.lost + 1)
            got want;
          S.Events.add t.events ~at:(Int64.to_float t1) ~ops:!answered
            ~lat:(Int64.to_float (Int64.sub t1 t0))
        end
      | Error _ ->
        t.lost <- t.lost + f.slots;
        Serve.Client.close c;
        conn := Serve.Client.connect socket)
  done;
  match !conn with Ok c -> Serve.Client.close c | Error _ -> ()

(* [conns] closed-loop connections for [seconds]; returns the tallies,
   the start time and the wall time. *)
let timed ?cores ~conns ~socket ~frames ~first ~seconds ~traced () =
  let ts = List.init conns (fun _ -> new_tally ()) in
  let t0 = now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let n = Array.length frames in
  let threads =
    List.mapi
      (fun k t ->
        Thread.create
          (fun () ->
            client ~cores ~socket ~frames ~first ~start:(k * n / conns) ~deadline ~traced t)
          ())
      ts
  in
  List.iter Thread.join threads;
  (ts, Int64.to_float t0, s_since t0)

let sum f ts = List.fold_left (fun a t -> a + f t) 0 ts

let result_text = function
  | Serve.Wire.Result j -> Json.to_string ~compact:true j
  | _ -> ""

(* The client's request_raw round trips as spans, then their mean. *)
let rtt_us ts =
  let all = List.concat_map (fun t -> t.rtts) ts in
  List.iter (fun (t0, t1) -> Perfbench.Spans.add "serve.request_raw" ~t0 ~t1) all;
  let total = List.fold_left (fun a (t0, t1) -> a +. Int64.to_float (Int64.sub t1 t0)) 0.0 all in
  total /. float_of_int (max 1 (List.length all)) /. 1e3

(* A short look at the daemon's round trip from a workload that does
   not serve: a fresh daemon primed with [blocks], then one connection
   of v1 predicts for a third of a second. Returns the mean round trip
   (us) and the share of requests answered without execution. *)
let mini_rtt args blocks =
  let cores = split_cores () in
  let d, conn = start ~cores args ~gc_stats:false in
  Fun.protect ~finally:(fun () -> if List.memq d !live then ignore (stop d)) @@ fun () ->
  let fr = frames ~batch:1 blocks in
  let first = prime conn fr in
  Serve.Client.close conn;
  let before = stats_of d.socket in
  let ts, _, _ =
    timed ~cores ~conns:1 ~socket:d.socket ~frames:fr ~first ~seconds:0.33 ~traced:true ()
  in
  let after = stats_of d.socket in
  let delta p = after p - before p in
  let rtt = rtt_us ts in
  stop_exn d;
  (rtt, Layers.ratio (delta [ "serving"; "warm_hits" ]) (delta [ "serving"; "requests" ]))

let run args ~batch ~conns ~split =
  let cores = if split then Some (split_cores ()) else None in
  let blocks =
    let seen = Hashtbl.create 1024 in
    corpus ~scale:serve_scale ~seed:args.seed
    |> List.filter (fun (b : Corpus.Block.t) ->
           let t = Corpus.Block.text b in
           if Hashtbl.mem seen t then false
           else begin
             Hashtbl.replace seen t ();
             true
           end)
  in
  if List.length blocks < working_set then failwith "corpus smaller than the working set";
  let blocks = List.filteri (fun i _ -> i < working_set) blocks in
  let fr = frames ~batch blocks in
  let (d, first), setup_s =
    repeated_setup
      ~n:(if args.trace then 1 else 3)
      ~discard:(fun (d, _) -> stop_exn d)
      (fun () ->
        let d, conn = start ?cores args ~gc_stats:args.trace in
        let first = prime conn fr in
        Serve.Client.close conn;
        (d, first))
  in
  say "%s: %d blocks in %d frames of %d, %d connection(s)%s, 1 shard, protocol v%d"
    args.workload working_set (Array.length fr) batch conns
    (match cores with
    | Some c -> Printf.sprintf " on core mask %#x, daemon on %#x" c.client c.daemon
    | None -> "")
    (if batch = 1 then 1 else 2);
  let seconds = if args.trace then args.seconds /. 2.0 else args.seconds in
  reset_peak (string_of_int d.pid);
  let before = stats_of d.socket in
  let ts, start_ns, wall_s =
    timed ?cores ~conns ~socket:d.socket ~frames:fr ~first ~seconds ~traced:false ()
  in
  let after = stats_of d.socket in
  let delta p = after p - before p in
  let traced_phase =
    if args.trace then
      Some (timed ?cores ~conns ~socket:d.socket ~frames:fr ~first ~seconds ~traced:true ())
    else None
  in
  let lifetime_requests = (stats_of d.socket) [ "serving"; "requests" ] in
  let rss = vm_hwm_mb (string_of_int d.pid) in
  stop_exn d;
  (* the local engine's rendering of every block, against the first
     replies: the check bhive_load --verify makes *)
  let jobs =
    List.map
      (fun (b : Corpus.Block.t) -> { Engine.env; uarch = Uarch.All.haswell; block = b.insts })
      blocks
  in
  let local = Array.to_list (Engine.run_batch (new_engine ()) jobs).outcomes in
  let served = List.concat_map slots_of (Array.to_list first) in
  let verify_bad =
    List.fold_left2
      (fun acc o r ->
        if result_text r <> S.render o then acc + 1
        else match o with Error (Engine.Quarantined _) -> acc + 1 | _ -> acc)
      0 local served
  in
  let digest = S.digest_rendered (List.map result_text served) in
  let ops = sum (fun t -> t.ops) ts in
  let refused = sum (fun t -> t.refused) ts
  and lost = sum (fun t -> t.lost) ts
  and mismatched = sum (fun t -> t.mismatched) ts in
  let failed = refused + lost + mismatched + verify_bad in
  let share = Layers.ratio (delta [ "serving"; "warm_hits" ]) (delta [ "serving"; "requests" ]) in
  say "%s: %d ops in %.3f s: %d refused, %d lost, %d mismatched; verify %d/%d mismatched; \
       %d frame samples; cache-answered share %.4f; %d profiler calls in the timed phase"
    args.workload ops wall_s refused lost mismatched verify_bad working_set
    (List.fold_left (fun a t -> a + S.Events.length t.events) 0 ts)
    share (delta [ "engine"; "profiler_calls" ]);
  let ops_per_s = float_of_int ops /. wall_s in
  let metrics =
    match traced_phase with
    | None ->
      e2e_metrics ~start_ns (List.map (fun t -> t.events) ts) ~setup_s ~rss_mb:rss
    | Some (tts, _, t_wall) ->
      let items = List.combine blocks local in
      let r =
        Layers.replay args
          ~profile_jobs:(Layers.sample 12 jobs) ~fp_jobs:jobs
          ~items:(List.combine jobs local) ~serve_items:items ~batch ()
      in
      let rtt = rtt_us tts in
      let per_slot name = Layers.us r name /. float_of_int batch in
      let served_ops = float_of_int (max 1 lifetime_requests) in
      let gc = exit_gc d.log in
      Layers.metrics r
      @ [
          ("engine.store_hit_share",
           Layers.ratio (delta [ "engine"; "store_hits" ])
             (delta [ "engine"; "store_hits" ] + delta [ "engine"; "store_misses" ]),
           "ratio");
          ("engine.profiler_calls", float_of_int (delta [ "engine"; "profiler_calls" ]), "count");
          ( "serve.rtt_unaccounted_us",
            Layers.rtt_unaccounted r rtt,
            "us" );
          ("serve.cache_answered_share", share, "ratio");
          ("gc.minor_words_per_op", gc.minor_words /. served_ops, "words/op");
          ( "gc.major_collections_per_kop",
            float_of_int gc.major_collections *. 1000.0 /. served_ops,
            "1/kop" );
          ( "unaccounted_share",
            Layers.unaccounted_share
              ~op_wall_us:(1e6 /. ops_per_s *. float_of_int conns)
              ([
                 ("serve.request_decode", per_slot "serve.request_decode", 1);
                 ("serve.response_decode", per_slot "serve.response_decode", 1);
               ]
              @
              if batch > 1 then
                [ ("serve.render", Layers.per_op_us r.totals "serve.render" ~ops:r.n_slots, 1) ]
              else []),
            "ratio" );
          ( "trace_overhead_share",
            1.0 -. (float_of_int (sum (fun t -> t.ops) tts) /. t_wall /. ops_per_s),
            "ratio" );
        ]
  in
  { correct = failed = 0; attempted = ops; failed; digest; metrics }
