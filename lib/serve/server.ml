(* The bhive_serve daemon core: a Unix-socket server in front of a
   sharded pool of engines over one shared store, built so overload
   degrades into typed refusals instead of hangs.

   Thread layout — per engine, exactly one domain ever touches it:

   - the caller of [run] becomes the acceptor: accepts connections
     (with a short poll timeout so a drain flag is noticed promptly)
     and spawns one handler thread per connection;
   - handler threads parse requests (through a resolution cache, so
     the x86 parser and the fingerprint sha256 run once per unique
     block), answer repeats of already-computed blocks straight from
     a rendered-answer cache, admit the rest into the bounded
     per-shard queues (or refuse: Overloaded / Shutting_down /
     Bad_request), block on their waiter until a dispatcher fulfils
     it, and write the response under a send timeout so a slow client
     cannot wedge a dispatcher result. Both predict ops take this one
     path ([answer_predicts]): a v1 predict is a one-slot batch;
   - one dispatcher *domain* per shard owns that shard's engine
     (Engine.run_batch's memo cache is submitting-thread-only, and an
     engine created with [~jobs:1] executes its batch inline on the
     calling domain, so each dispatcher domain gets its own
     machine ([Pipeline.Machine.for_descriptor]) through the Domain.DLS
     discipline): it pops up to [batch_max] queued entries, sheds the
     expired ones, answers warm ones via Engine.peek, micro-batches
     the rest through [Engine.run_batch], and fulfils every waiter.

   Sharding: requests are routed by the hash of the job fingerprint,
   so every request for a given block lands on the same shard — which
   is exactly what makes coalescing still exact with N dispatchers,
   and what makes responses independent of the pool size: the answer
   to a job depends only on the job, never on which shard computed it.
   The engines share ONE store handle (the store's cross-process file
   locks are per-process; see Engine.create's [?store]).

   Coalescing: each shard's [inflight] maps job fingerprint -> entry
   for every queued or executing entry of that shard. A request whose
   fingerprint is already in flight attaches as a waiter (coalesced++)
   instead of occupying a queue slot. The entry is removed from the
   map atomically with taking its waiter list — on every fulfilment
   path, including deadline and drain sheds — so a late request can
   never attach to an already-dead entry.

   Drain: SIGTERM/SIGINT set a flag. The acceptor stops accepting and
   returns; queued work is finished if it fits inside the drain grace
   period and shed with Shutting_down otherwise; telemetry is flushed
   by the caller after [run] returns. *)

module Json = Telemetry.Json

type config = {
  socket_path : string;
  queue_capacity : int;
      (** total across the pool; each shard gets an equal slice *)
  batch_max : int;  (** micro-batch ceiling per dispatch cycle *)
  idle_timeout : float;  (** seconds a connection may sit between requests *)
  write_timeout : float;  (** slow-client response-write budget, seconds *)
  drain_grace : float;  (** seconds to finish queued work after SIGTERM *)
}

let default_config socket_path =
  {
    socket_path;
    queue_capacity = 256;
    batch_max = 64;
    idle_timeout = 30.0;
    write_timeout = 10.0;
    drain_grace = 5.0;
  }

type counters = {
  mutable connections : int;
  mutable requests : int;
      (** predict requests handled (admitted or answered from cache) *)
  mutable accepted : int;  (** entries admitted into a queue *)
  mutable coalesced : int;  (** requests attached to an in-flight entry *)
  mutable completed : int;  (** requests answered with a result *)
  mutable warm_hits : int;
      (** requests answered without executing: the handler's answer
          cache or the dispatcher's memo/store peek *)
  mutable executed : int;  (** entries resolved through Engine.run_batch *)
  mutable shed_overload : int;  (** refused at admission: queue full *)
  mutable shed_deadline : int;  (** shed after accept: deadline expired *)
  mutable shed_drain : int;  (** shed after accept: drain grace exceeded *)
  mutable bad_requests : int;
  mutable write_timeouts : int;
}

type waiter = {
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  mutable w_reply : Wire.response option;
}

type entry = {
  fp : string;
  job : Engine.job;
  mutable deadline_ns : int64 option;
      (** absolute, Trace.now_ns clock; always the LOOSEST deadline
          across every attached waiter ([None] = no deadline), so an
          entry is shed only when no waiter could still use the
          answer — a client that attached with no (or a longer)
          deadline is never refused on account of the first
          requester's. Mutated under the shard mutex. *)
  mutable waiters : waiter list;
}

type shard = {
  s_engine : Engine.t;
  s_mutex : Mutex.t;
  s_cond : Condition.t;
  s_queue : entry Queue.t;
  s_inflight : (string, entry) Hashtbl.t;
  s_capacity : int;
}

type t = {
  cfg : config;
  shards : shard array;
  listen_fd : Unix.file_descr;
  cmutex : Mutex.t;
      (** guards [c] and [busy]; lock order is shard mutex first,
          [cmutex] second — never the reverse *)
  c : counters;
  draining : bool Atomic.t;
  mutable drain_until_ns : int64;
  mutable busy : int;  (** admitted requests not yet written back *)
  rmutex : Mutex.t;
      (** guards [resolved] and [answers]; a leaf lock — never taken
          while holding it *)
  resolved :
    ( string * string * string option * Manifest.Spec.filters,
      (Engine.job * string, string) result )
    Hashtbl.t;
      (** request resolution cache: (uarch, asm, block_hex, filters) —
          everything that determines the job, deadline excluded — to
          the parsed job and its fingerprint (or the parse error).
          Sound because [Wire.job_of_predict] and [Engine.fingerprint]
          are deterministic; this takes the x86 parser and sha256 off
          the warm path. *)
  answers : (string, Wire.response * string) Hashtbl.t;
      (** fingerprint -> (successful Result, its rendered v1 frame).
          Filled by [fulfil]; lets a handler answer a repeat request
          directly, without a dispatcher round trip (which on a
          saturated box costs two context switches per request).
          Refusals are never cached, and results are immutable for the
          life of the process (same property the engine memo relies
          on), so a cached answer is byte-identical to a recomputed
          one. *)
  gate : (unit -> unit) option;
      (** test hook, called at the top of every dispatch cycle *)
}

let resolve_cache_max = 8192
let answer_cache_max = 65536

let now_ns () = Telemetry.Trace.now_ns ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create ?(config : config option) ?gate ~engines socket_path =
  if Array.length engines = 0 then
    invalid_arg "Server.create: empty engine pool";
  let cfg =
    match config with Some c -> c | None -> default_config socket_path
  in
  (* a stale socket file from a killed server would make bind fail;
     remove it — the advisory store locks, not the socket file, are
     what serialises multi-process access *)
  (match Unix.lstat cfg.socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink cfg.socket_path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" cfg.socket_path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 128;
  (* short accept timeout: the accept loop is also the drain poll *)
  Unix.setsockopt_float listen_fd Unix.SO_RCVTIMEO 0.25;
  let capacity =
    max 1 (cfg.queue_capacity / Array.length engines)
  in
  {
    cfg;
    shards =
      Array.map
        (fun engine ->
          {
            s_engine = engine;
            s_mutex = Mutex.create ();
            s_cond = Condition.create ();
            s_queue = Queue.create ();
            s_inflight = Hashtbl.create 256;
            s_capacity = capacity;
          })
        engines;
    listen_fd;
    cmutex = Mutex.create ();
    c =
      {
        connections = 0;
        requests = 0;
        accepted = 0;
        coalesced = 0;
        completed = 0;
        warm_hits = 0;
        executed = 0;
        shed_overload = 0;
        shed_deadline = 0;
        shed_drain = 0;
        bad_requests = 0;
        write_timeouts = 0;
      };
    draining = Atomic.make false;
    drain_until_ns = Int64.max_int;
    busy = 0;
    rmutex = Mutex.create ();
    resolved = Hashtbl.create 1024;
    answers = Hashtbl.create 4096;
    gate;
  }

(* Same-fingerprint requests always land on the same shard: that is
   what keeps coalescing exact with N dispatchers, and why responses
   cannot depend on the pool size. *)
let shard_index t fp =
  let h = Store.Codec.fnv1a64 fp in
  Int64.to_int
    (Int64.rem (Int64.logand h Int64.max_int)
       (Int64.of_int (Array.length t.shards)))

let stats_json t =
  let queued = ref 0 and inflight = ref 0 in
  Array.iter
    (fun sh ->
      with_lock sh.s_mutex (fun () ->
          queued := !queued + Queue.length sh.s_queue;
          inflight := !inflight + Hashtbl.length sh.s_inflight))
    t.shards;
  let c = with_lock t.cmutex (fun () -> { t.c with connections = t.c.connections }) in
  let agg f =
    Array.fold_left (fun acc sh -> acc + f (Engine.stats sh.s_engine)) 0 t.shards
  in
  let n name v = (name, Json.Number (float_of_int v)) in
  Json.Object
    ([
       ( "serving",
         Json.Object
           [
             n "shards" (Array.length t.shards);
             n "connections" c.connections;
             n "requests" c.requests;
             n "accepted" c.accepted;
             n "coalesced" c.coalesced;
             n "completed" c.completed;
             n "warm_hits" c.warm_hits;
             n "executed" c.executed;
             n "shed_overload" c.shed_overload;
             n "shed_deadline" c.shed_deadline;
             n "shed_drain" c.shed_drain;
             n "bad_requests" c.bad_requests;
             n "write_timeouts" c.write_timeouts;
             n "queued" !queued;
             n "inflight" !inflight;
           ] );
       ( "engine",
         Json.Object
           [
             n "profiler_calls" (agg (fun e -> e.Engine.profiler_calls));
             n "store_hits" (agg (fun e -> e.Engine.store_hits));
             n "store_misses" (agg (fun e -> e.Engine.store_misses));
             n "store_writes" (agg (fun e -> e.Engine.store_writes));
             n "cache_hits" (agg (fun e -> e.Engine.cache_hits));
             n "executed" (agg (fun e -> e.Engine.executed));
           ] );
     ]
    @
    match Engine.store t.shards.(0).s_engine with
    | None -> []
    | Some store ->
      let s = Store.stats store in
      [
        ( "store",
          Json.Object
            [
              ("open_seconds", Json.Number s.Store.s_open_seconds);
              n "live" s.Store.s_live;
            ] );
      ])

(* ------------------------------------------------------------------ *)
(* Warm-path caches                                                    *)
(* ------------------------------------------------------------------ *)

let resolve t (p : Wire.predict) =
  let key = (p.Wire.uarch, p.Wire.asm, p.Wire.block_hex, p.Wire.filters) in
  match with_lock t.rmutex (fun () -> Hashtbl.find_opt t.resolved key) with
  | Some r -> r
  | None ->
    let r =
      match Wire.job_of_predict p with
      | Error _ as e -> e
      | Ok job -> Ok (job, Engine.fingerprint job)
    in
    (* two threads may race to compute the same key; both arrive at the
       same value, so last-write-wins is fine *)
    with_lock t.rmutex (fun () ->
        if Hashtbl.length t.resolved >= resolve_cache_max then
          Hashtbl.reset t.resolved;
        Hashtbl.replace t.resolved key r);
    r

let cached_answer t fp =
  with_lock t.rmutex (fun () -> Hashtbl.find_opt t.answers fp)

let cache_answer t fp reply =
  with_lock t.rmutex (fun () ->
      if not (Hashtbl.mem t.answers fp) then begin
        if Hashtbl.length t.answers >= answer_cache_max then
          Hashtbl.reset t.answers;
        Hashtbl.replace t.answers fp (reply, Wire.response_to_string reply)
      end)

let notify_waiters ws reply =
  List.iter
    (fun w ->
      with_lock w.w_mutex (fun () ->
          w.w_reply <- Some reply;
          Condition.signal w.w_cond))
    ws

(* Fulfil every waiter of [entry] with [reply], detaching the entry
   from its shard's coalescing map first (atomically with taking the
   waiter list) — this removal happens on shed paths too, so a late
   duplicate can never attach to a dead entry. *)
let fulfil t sh entry reply =
  (match reply with
  | Wire.Result _ -> cache_answer t entry.fp reply
  | _ -> ());
  let ws =
    with_lock sh.s_mutex (fun () ->
        Hashtbl.remove sh.s_inflight entry.fp;
        let ws = entry.waiters in
        entry.waiters <- [];
        ws)
  in
  (match reply with
  | Wire.Result _ ->
    with_lock t.cmutex (fun () ->
        t.c.completed <- t.c.completed + List.length ws)
  | _ -> ());
  notify_waiters ws reply

(* Dispatch-time deadline shed: the expiry check, the detach from the
   coalescing map and the waiter grab happen atomically under the
   shard lock, so a concurrent attach that loosens the deadline (see
   [admit]) either lands before the check and rescues the entry, or
   misses the map and is admitted as a fresh entry. [entry.deadline_ns]
   is the loosest deadline over the attached waiters, so when it has
   expired, every waiter's has. *)
let take_if_expired sh entry now =
  with_lock sh.s_mutex (fun () ->
      match entry.deadline_ns with
      | Some d when Int64.compare now d > 0 ->
        Hashtbl.remove sh.s_inflight entry.fp;
        let ws = entry.waiters in
        entry.waiters <- [];
        `Shed ws
      | _ -> `Run)

(* ------------------------------------------------------------------ *)
(* Dispatchers                                                         *)
(* ------------------------------------------------------------------ *)

let bump t f =
  with_lock t.cmutex (fun () -> f t.c)

let dispatcher_cycle t sh =
  (match t.gate with Some g -> g () | None -> ());
  let batch =
    with_lock sh.s_mutex (fun () ->
        while Queue.is_empty sh.s_queue && not (Atomic.get t.draining) do
          Condition.wait sh.s_cond sh.s_mutex
        done;
        if Queue.is_empty sh.s_queue then None
        else begin
          let n = min t.cfg.batch_max (Queue.length sh.s_queue) in
          Some (List.init n (fun _ -> Queue.pop sh.s_queue))
        end)
  in
  match batch with
  | None -> false
  | Some entries ->
    let now = now_ns () in
    let drain_cut =
      if Atomic.get t.draining && now > t.drain_until_ns then `Shed else `Run
    in
    let runnable =
      List.filter
        (fun e ->
          match drain_cut with
          | `Shed ->
            bump t (fun c -> c.shed_drain <- c.shed_drain + 1);
            fulfil t sh e
              (Wire.Refused (Wire.Shutting_down, "drain deadline exceeded"));
            false
          | `Run -> (
            match take_if_expired sh e now with
            | `Shed ws ->
              bump t (fun c -> c.shed_deadline <- c.shed_deadline + 1);
              notify_waiters ws
                (Wire.Refused
                   (Wire.Deadline_exceeded, "deadline expired before dispatch"));
              false
            | `Run -> true))
        entries
    in
    (* warm fast path: memo/store probe answers without a batch slot.
       [Engine.run_batch] answers a cycle's entries only once all of
       them have resolved, while [peek] answers each warm entry as soon
       as its store read returns; sending everything to [run_batch]
       served fewer req/s on a warm store with a cold answer cache
       (DESIGN.md §10). *)
    let cold =
      List.filter
        (fun e ->
          match Engine.peek sh.s_engine e.job with
          | Some outcome ->
            bump t (fun c -> c.warm_hits <- c.warm_hits + 1);
            fulfil t sh e (Wire.Result (Wire.outcome_json outcome));
            false
          | None -> true)
        runnable
    in
    (match cold with
    | [] -> ()
    | _ ->
      let batch =
        Engine.run_batch sh.s_engine (List.map (fun e -> e.job) cold)
      in
      bump t (fun c -> c.executed <- c.executed + List.length cold);
      List.iteri
        (fun i e ->
          fulfil t sh e
            (Wire.Result (Wire.outcome_json batch.Engine.outcomes.(i))))
        cold);
    true

let rec dispatcher_loop t sh = if dispatcher_cycle t sh then dispatcher_loop t sh

(* ------------------------------------------------------------------ *)
(* Admission and handlers                                              *)
(* ------------------------------------------------------------------ *)

let new_waiter () =
  { w_mutex = Mutex.create (); w_cond = Condition.create (); w_reply = None }

let deadline_ns_of deadline_ms =
  Option.map
    (fun ms -> Int64.add (now_ns ()) (Int64.of_int (ms * 1_000_000)))
    deadline_ms

(* Admit one job into [sh]. The caller holds [sh.s_mutex]. *)
let admit t sh ~fp job deadline_ms =
  bump t (fun c -> c.requests <- c.requests + 1);
  if Atomic.get t.draining then
    `Refuse (Wire.Refused (Wire.Shutting_down, "server is draining"))
  else
    match Hashtbl.find_opt sh.s_inflight fp with
    | Some entry ->
      let w = new_waiter () in
      entry.waiters <- w :: entry.waiters;
      (* keep the entry's deadline the loosest across its waiters: a
         coalesced entry must outlive its most patient requester *)
      (match (entry.deadline_ns, deadline_ns_of deadline_ms) with
      | None, _ -> ()
      | _, None -> entry.deadline_ns <- None
      | Some a, Some b ->
        if Int64.compare b a > 0 then entry.deadline_ns <- Some b);
      with_lock t.cmutex (fun () ->
          t.c.coalesced <- t.c.coalesced + 1;
          t.busy <- t.busy + 1);
      `Wait w
    | None ->
      if Queue.length sh.s_queue >= sh.s_capacity then begin
        bump t (fun c -> c.shed_overload <- c.shed_overload + 1);
        `Refuse
          (Wire.Refused
             ( Wire.Overloaded,
               Printf.sprintf "queue full (%d entries)" sh.s_capacity ))
      end
      else begin
        let w = new_waiter () in
        let deadline_ns = deadline_ns_of deadline_ms in
        let entry = { fp; job; deadline_ns; waiters = [ w ] } in
        Hashtbl.replace sh.s_inflight fp entry;
        Queue.push entry sh.s_queue;
        with_lock t.cmutex (fun () ->
            t.c.accepted <- t.c.accepted + 1;
            t.busy <- t.busy + 1);
        Condition.signal sh.s_cond;
        `Wait w
      end

let wait_reply w =
  with_lock w.w_mutex (fun () ->
      while w.w_reply = None do
        Condition.wait w.w_cond w.w_mutex
      done;
      Option.get w.w_reply)

let send_raw t fd payload =
  match Wire.write_frame fd payload with
  | () -> true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    bump t (fun c -> c.write_timeouts <- c.write_timeouts + 1);
    false
  | exception Unix.Unix_error (_, _, _) -> false

let send_response t fd response =
  send_raw t fd (Wire.response_to_string response)

let release_busy t n =
  if n > 0 then with_lock t.cmutex (fun () -> t.busy <- t.busy - n)

(* The one request path behind both predict ops; a v1 predict is a
   one-slot batch. Each slot is resolved and answered independently: a
   malformed block answers Bad_request in place, a repeat of an
   answered block answers from the answer cache (skipped while
   draining, so a drain refuses uniformly), and the rest are admitted,
   taking each shard's lock once however many slots land on it. [send]
   gets the replies in slot order, each with its pre-rendered v1 frame
   when it came from the cache, and returns whether it wrote them. *)
let answer_predicts t preds deadline_ms send =
  let draining = Atomic.get t.draining in
  let slots =
    Array.of_list
      (List.map
         (fun p ->
           match resolve t p with
           | Error msg ->
             bump t (fun c -> c.bad_requests <- c.bad_requests + 1);
             `Refuse (Wire.Refused (Wire.Bad_request, msg))
           | Ok (job, fp) -> (
             match if draining then None else cached_answer t fp with
             | Some hit -> `Hit hit
             | None -> `Admit (shard_index t fp, fp, job)))
         preds)
  in
  let count f = Array.fold_left (fun n s -> if f s then n + 1 else n) 0 slots in
  (* cache hits never reach admission, but they are requests, warm
     hits and completions all the same *)
  let hits = count (function `Hit _ -> true | _ -> false) in
  if hits > 0 then
    bump t (fun c ->
        c.requests <- c.requests + hits;
        c.warm_hits <- c.warm_hits + hits;
        c.completed <- c.completed + hits);
  Array.iteri
    (fun si sh ->
      if Array.exists (function `Admit (s, _, _) -> s = si | _ -> false) slots
      then
        with_lock sh.s_mutex (fun () ->
            Array.iteri
              (fun i -> function
                | `Admit (s, fp, job) when s = si ->
                  slots.(i) <- admit t sh ~fp job deadline_ms
                | _ -> ())
              slots))
    t.shards;
  (* the busy ticks must be released on EVERY exit path out of the
     waits and the send below, or a drain would wait out its full
     grace on ticks nobody will return *)
  Fun.protect
    ~finally:(fun () ->
      release_busy t (count (function `Wait _ -> true | _ -> false)))
    (fun () ->
      send
        (Array.to_list
           (Array.map
              (function
                | `Refuse r -> (r, None)
                | `Hit (r, raw) -> (r, Some raw)
                | `Wait w -> (wait_reply w, None)
                | `Admit _ -> assert false)
              slots)))

let handle_connection t fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.write_timeout;
  let finished = ref false in
  (try
     while not !finished do
       match Wire.read_frame fd with
       | Error Wire.Eof -> finished := true
       | Error (Wire.Malformed msg) ->
         (* framing is broken; answer if possible, then hang up *)
         ignore (send_response t fd (Wire.Refused (Wire.Bad_request, msg)));
         finished := true
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         (* idle timeout between requests *)
         finished := true
       | Ok payload -> (
         match Wire.request_of_string payload with
         | Error msg ->
           bump t (fun c -> c.bad_requests <- c.bad_requests + 1);
           if not (send_response t fd (Wire.Refused (Wire.Bad_request, msg)))
           then finished := true
         | Ok Wire.Ping ->
           if not (send_response t fd Wire.Pong) then finished := true
         | Ok Wire.Stats ->
           if not (send_response t fd (Wire.Stats_reply (stats_json t))) then
             finished := true
         | Ok (Wire.Predict p) ->
           (* rendered as its one slot; a cache hit is written as its
              pre-rendered frame *)
           let send = function
             | [ (_, Some raw) ] -> send_raw t fd raw
             | [ (reply, None) ] -> send_response t fd reply
             | _ -> assert false
           in
           if not (answer_predicts t [ p ] p.deadline_ms send) then
             finished := true
         | Ok (Wire.Predict_batch pb) ->
           let preds = List.map (Wire.predict_of_batch_block pb) pb.pb_blocks in
           let send slots =
             send_response t fd (Wire.Results (List.map fst slots))
           in
           if not (answer_predicts t preds pb.pb_deadline_ms send) then
             finished := true)
     done
   with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let request_drain t = Atomic.set t.draining true

let install_signal_handlers t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let drain = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm drain;
  Sys.set_signal Sys.sigint drain

(* Accept loop; returns when draining. The SO_RCVTIMEO poll bounds how
   long a drain request waits on an idle listener. *)
let accept_loop t =
  let continue = ref true in
  while !continue do
    if Atomic.get t.draining then continue := false
    else
      match Store.Eintr.intr (fun () -> Unix.accept ~cloexec:true t.listen_fd) with
      | fd, _ ->
        bump t (fun c -> c.connections <- c.connections + 1);
        ignore (Thread.create (fun () -> handle_connection t fd) ())
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> continue := false
  done

(* Wait (bounded) for handler threads to finish writing fulfilled
   responses, so a drain does not exit with results still unsent. *)
let await_quiescent t deadline_ns =
  let rec go () =
    let busy = with_lock t.cmutex (fun () -> t.busy) in
    if busy > 0 && now_ns () < deadline_ns then begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* Run until drained: blocks the calling thread in the accept loop and
   returns once every shard queue is drained (or shed) and responses
   are written. The caller flushes telemetry and exits. *)
let run ?(signals = true) t =
  if signals then install_signal_handlers t;
  let dispatchers =
    Array.map (fun sh -> Domain.spawn (fun () -> dispatcher_loop t sh)) t.shards
  in
  accept_loop t;
  (* drain: the grace period starts when the drain begins *)
  t.drain_until_ns <-
    Int64.add (now_ns ())
      (Int64.of_float (t.cfg.drain_grace *. 1e9));
  Array.iter
    (fun sh -> with_lock sh.s_mutex (fun () -> Condition.broadcast sh.s_cond))
    t.shards;
  Array.iter Domain.join dispatchers;
  await_quiescent t t.drain_until_ns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())

let counters t = t.c
