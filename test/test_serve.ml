(* Tests for the bhive_serve daemon core: wire framing and protocol
   round-trips, EINTR-retry helpers, and an in-process server driven
   through real Unix sockets — byte-identity with the engine path,
   typed refusals (bad request, overload, deadline, drain) and the
   coalescing of concurrent duplicate requests. The dispatcher [gate]
   hook makes the concurrency tests deterministic: the test holds the
   dispatcher at the top of its cycle until the interesting state
   (queued duplicates, a full queue, an expired deadline) is in place. *)

module Json = Telemetry.Json
module Wire = Serve.Wire
module Server = Serve.Server
module Client = Serve.Client

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* --- EINTR helpers ----------------------------------------------------- *)

let test_eintr_intr () =
  let attempts = ref 0 in
  let v =
    Store.Eintr.intr (fun () ->
        incr attempts;
        if !attempts < 4 then raise (Unix.Unix_error (Unix.EINTR, "read", ""));
        42)
  in
  Alcotest.(check int) "result delivered" 42 v;
  Alcotest.(check int) "three EINTRs retried" 4 !attempts;
  (* other errors pass through untouched *)
  (match Store.Eintr.intr (fun () -> raise (Unix.Unix_error (Unix.EBADF, "x", ""))) with
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  | _ -> Alcotest.fail "EBADF must not be retried");
  Alcotest.(check pass) "EBADF propagates" () ()

let test_eintr_really_rw () =
  (* a payload much larger than the socket buffer forces partial
     writes; the writer thread must loop while this thread drains *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = String.init 1_000_000 (fun i -> Char.chr (i land 0xff)) in
  let writer =
    Thread.create
      (fun () ->
        Store.Eintr.really_write_substring a payload;
        Unix.shutdown a Unix.SHUTDOWN_SEND)
      ()
  in
  let buf = Bytes.create (String.length payload) in
  Alcotest.(check bool) "full payload read" true
    (Store.Eintr.really_read b buf 0 (Bytes.length buf));
  Thread.join writer;
  Alcotest.(check bool) "bytes identical" true
    (Bytes.to_string buf = payload);
  (* EOF before the requested length reports false, not an exception *)
  let small = Bytes.create 4 in
  Alcotest.(check bool) "premature EOF is false" false
    (Store.Eintr.really_read b small 0 4);
  Unix.close a;
  Unix.close b

(* --- Wire framing ------------------------------------------------------ *)

let test_wire_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Wire.write_frame a "hello";
  Wire.write_frame a "";
  (match Wire.read_frame b with
  | Ok s -> Alcotest.(check string) "payload round-trips" "hello" s
  | Error _ -> Alcotest.fail "first frame unreadable");
  (match Wire.read_frame b with
  | Ok s -> Alcotest.(check string) "empty payload ok" "" s
  | Error _ -> Alcotest.fail "empty frame unreadable");
  (* garbage magic *)
  ignore (Unix.write_substring a "XXXX\000\000\000\000" 0 8);
  (match Wire.read_frame b with
  | Error (Wire.Malformed msg) ->
    Alcotest.(check bool) "bad magic named" true (contains ~needle:"magic" msg)
  | _ -> Alcotest.fail "bad magic accepted");
  (* oversized length prefix *)
  let buf = Buffer.create 8 in
  Buffer.add_string buf Wire.magic;
  Store.Codec.u32 buf (Wire.max_frame_len + 1);
  ignore (Unix.write_substring a (Buffer.contents buf) 0 8);
  (match Wire.read_frame b with
  | Error (Wire.Malformed msg) ->
    Alcotest.(check bool) "oversized named" true
      (contains ~needle:"oversized" msg)
  | _ -> Alcotest.fail "oversized frame accepted");
  (* clean EOF between frames *)
  Unix.close a;
  (match Wire.read_frame b with
  | Error Wire.Eof -> ()
  | _ -> Alcotest.fail "EOF not detected");
  Unix.close b

let test_wire_request_roundtrip () =
  let reqs =
    [
      Wire.Ping;
      Wire.Stats;
      Wire.Predict
        {
          Wire.asm = "add %rbx, %r10\ncmp %r11, %rax";
          uarch = "hsw";
          deadline_ms = Some 250;
          block_hex = None;
          filters = Manifest.Spec.default_filters;
        };
    ]
  in
  List.iter
    (fun r ->
      match Wire.request_of_string (Wire.request_to_string r) with
      | Ok r' ->
        Alcotest.(check bool) "request round-trips" true (r = r')
      | Error msg -> Alcotest.fail ("round-trip failed: " ^ msg))
    reqs;
  (* unknown op, missing asm, bad version *)
  let bad what s =
    match Wire.request_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
  in
  bad "unknown op" {|{"v":1,"op":"explode"}|};
  bad "missing asm" {|{"v":1,"op":"predict"}|};
  bad "wrong version" {|{"v":99,"op":"ping"}|};
  bad "no version" {|{"op":"ping"}|};
  bad "not json" "}{";
  (* v2 coexists with v1 on the same decoder *)
  (match Wire.request_of_string {|{"v":2,"op":"ping"}|} with
  | Ok Wire.Ping -> ()
  | _ -> Alcotest.fail "v2 ping rejected");
  let pb =
    Wire.Predict_batch
      {
        Wire.pb_uarch = "hsw";
        pb_deadline_ms = Some 100;
        pb_filters = Manifest.Spec.default_filters;
        pb_blocks =
          [
            { Wire.bb_asm = "add %rbx, %r10"; bb_block_hex = None };
            { Wire.bb_asm = "imul %rsi, %rdi"; bb_block_hex = Some "ab" };
          ];
      }
  in
  (match Wire.request_of_string (Wire.request_to_string pb) with
  | Ok pb' -> Alcotest.(check bool) "batch round-trips" true (pb = pb')
  | Error msg -> Alcotest.fail ("batch round-trip failed: " ^ msg));
  bad "batch on v1" {|{"v":1,"op":"predict_batch","blocks":[{"asm":"nop"}]}|};
  bad "empty blocks" {|{"v":2,"op":"predict_batch","blocks":[]}|};
  bad "blocks not array" {|{"v":2,"op":"predict_batch","blocks":3}|};
  bad "block missing asm" {|{"v":2,"op":"predict_batch","blocks":[{}]}|};
  Alcotest.(check pass) "malformed requests rejected" () ()

let test_wire_response_roundtrip () =
  let resps =
    [
      Wire.Pong;
      Wire.Result (Json.Object [ ("status", Json.String "measured") ]);
      Wire.Refused (Wire.Overloaded, "queue full");
      Wire.Refused (Wire.Deadline_exceeded, "late");
      Wire.Refused (Wire.Bad_request, "nope");
      Wire.Refused (Wire.Shutting_down, "bye");
      Wire.Stats_reply (Json.Object [ ("requests", Json.Number 3.0) ]);
      Wire.Results
        [
          Wire.Result (Json.Object [ ("status", Json.String "measured") ]);
          Wire.Refused (Wire.Deadline_exceeded, "late");
          Wire.Result (Json.Object [ ("status", Json.String "failed") ]);
        ];
    ]
  in
  List.iter
    (fun r ->
      match Wire.response_of_string (Wire.response_to_string r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error msg -> Alcotest.fail ("round-trip failed: " ^ msg))
    resps;
  (* a batch slot's result object renders byte-identically to the v1
     response carrying the same result, modulo the "v" envelope *)
  let r = Json.Object [ ("status", Json.String "measured") ] in
  let v1 = Wire.response_to_string (Wire.Result r) in
  let v2 = Wire.response_to_string (Wire.Results [ Wire.Result r ]) in
  Alcotest.(check bool) "slot body embedded in v1 rendering" true
    (let body = {|"status":"ok","result":{"status":"measured"}|} in
     contains ~needle:body v1 && contains ~needle:body v2)

(* --- In-process server ------------------------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "bhive_serve_test" ".sock" in
  Sys.remove path;
  path

(* A dispatcher gate the tests can hold closed: while closed, the
   dispatcher blocks at the top of its cycle, so queued state is
   observable without racing the dispatch. *)
type gate = { g_mutex : Mutex.t; g_cond : Condition.t; mutable g_open : bool }

let make_gate () =
  { g_mutex = Mutex.create (); g_cond = Condition.create (); g_open = true }

let gate_fn g () =
  Mutex.lock g.g_mutex;
  while not g.g_open do
    Condition.wait g.g_cond g.g_mutex
  done;
  Mutex.unlock g.g_mutex

let set_gate g open_ =
  Mutex.lock g.g_mutex;
  g.g_open <- open_;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_mutex

let with_server ?(configure = Server.default_config) ?(shards = 1) ?gate ?store
    f =
  let socket = temp_socket () in
  let engines = Array.init shards (fun _ -> Engine.create ~jobs:1 ?store ()) in
  let config = configure socket in
  let server =
    match gate with
    | Some g -> Server.create ~config ~gate:(gate_fn g) ~engines socket
    | None -> Server.create ~config ~engines socket
  in
  let runner = Thread.create (fun () -> Server.run ~signals:false server) () in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun g -> set_gate g true) gate;
      Server.request_drain server;
      Thread.join runner;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f server socket)

let predict ?deadline_ms ?(uarch = "hsw") asm =
  Wire.Predict
    {
      Wire.asm;
      uarch;
      deadline_ms;
      block_hex = None;
      filters = Manifest.Spec.default_filters;
    }

let batch ?deadline_ms ?(uarch = "hsw") asms =
  Wire.Predict_batch
    {
      Wire.pb_uarch = uarch;
      pb_deadline_ms = deadline_ms;
      pb_filters = Manifest.Spec.default_filters;
      pb_blocks =
        List.map (fun asm -> { Wire.bb_asm = asm; bb_block_hex = None }) asms;
    }

let request_exn what client req =
  match Client.request client req with
  | Ok r -> r
  | Error msg -> Alcotest.fail (what ^ ": " ^ msg)

(* The stats op's counters, read by JSON path. *)
let stats_counters c =
  match request_exn "stats" c Wire.Stats with
  | Wire.Stats_reply s -> fun path -> Option.bind (Json.path path s) Json.number
  | _ -> Alcotest.fail "stats refused"

let asm_a = "add %rbx, %r10\ncmp %r11, %rax"
let asm_b = "sub %rcx, %rdx\nmov %rdx, %r9"
let asm_c = "imul %rsi, %rdi"

let test_serve_roundtrip_byte_identity () =
  with_server (fun _server socket ->
      match Client.connect ~retries:20 socket with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
        (match request_exn "ping" c Wire.Ping with
        | Wire.Pong -> ()
        | _ -> Alcotest.fail "ping did not pong");
        let remote =
          match request_exn "predict" c (predict asm_a) with
          | Wire.Result r -> Json.to_string ~compact:true r
          | _ -> Alcotest.fail "predict refused"
        in
        (* the daemon's answer must be byte-identical to the engine
           path's rendering of the same job *)
        let local =
          let engine = Engine.create ~jobs:1 () in
          let job =
            {
              Engine.env =
                Manifest.Spec.environment_of_filters
                  Manifest.Spec.default_filters;
              uarch = Uarch.All.haswell;
              block = Result.get_ok (X86.Parser.block asm_a);
            }
          in
          let batch = Engine.run_batch engine [ job ] in
          Json.to_string ~compact:true
            (Wire.outcome_json batch.Engine.outcomes.(0))
        in
        Alcotest.(check string) "daemon and engine path byte-identical" local
          remote;
        (* stats op reflects the request *)
        (match request_exn "stats" c Wire.Stats with
        | Wire.Stats_reply s ->
          let count name =
            Option.bind (Json.path [ "serving"; name ] s) Json.number
          in
          Alcotest.(check (option (float 0.0))) "one request accepted"
            (Some 1.0) (count "accepted")
        | _ -> Alcotest.fail "stats refused");
        Client.close c)

let test_serve_bad_requests () =
  with_server (fun server socket ->
      match Client.connect ~retries:20 socket with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
        let refused what req expect_needle =
          match request_exn what c req with
          | Wire.Refused (Wire.Bad_request, msg) ->
            Alcotest.(check bool)
              (what ^ " message mentions " ^ expect_needle)
              true
              (contains ~needle:expect_needle msg)
          | _ -> Alcotest.fail (what ^ ": not refused as bad_request")
        in
        refused "unparseable asm" (predict "not even assembly!") "parse";
        refused "empty block" (predict "") "";
        refused "unknown uarch" (predict ~uarch:"z80" asm_a) "z80";
        (* block_hex cross-check: a wrong hex is refused *)
        (match
           request_exn "hex mismatch" c
             (Wire.Predict
                {
                  Wire.asm = asm_a;
                  uarch = "hsw";
                  deadline_ms = None;
                  block_hex = Some "deadbeef";
                  filters = Manifest.Spec.default_filters;
                })
         with
        | Wire.Refused (Wire.Bad_request, msg) ->
          Alcotest.(check bool) "mismatch named" true
            (contains ~needle:"block_hex" msg)
        | _ -> Alcotest.fail "wrong block_hex accepted");
        Alcotest.(check int) "bad requests counted" 4
          (Server.counters server).Server.bad_requests;
        Client.close c)

let spawn_predict socket req =
  let result = ref (Error "not run") in
  let thread =
    Thread.create
      (fun () ->
        match Client.connect ~retries:20 socket with
        | Error msg -> result := Error msg
        | Ok c ->
          result := Client.request c req;
          Client.close c)
      ()
  in
  (thread, result)

let poll_until ?(timeout = 5.0) what f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timeout waiting for " ^ what)
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let test_serve_coalescing () =
  let gate = make_gate () in
  set_gate gate false;
  with_server ~gate (fun server socket ->
      (* two concurrent requests for the same block while the
         dispatcher is held: the second must attach to the first's
         in-flight entry, not occupy a queue slot *)
      let t1, r1 = spawn_predict socket (predict asm_a) in
      let c = Server.counters server in
      poll_until "first request queued" (fun () -> c.Server.accepted = 1);
      let t2, r2 = spawn_predict socket (predict asm_a) in
      poll_until "second request coalesced" (fun () -> c.Server.coalesced = 1);
      Alcotest.(check int) "still one queue entry" 1 c.Server.accepted;
      set_gate gate true;
      Thread.join t1;
      Thread.join t2;
      let payload = function
        | Ok (Wire.Result r) -> Json.to_string ~compact:true r
        | Ok _ -> Alcotest.fail "refused"
        | Error msg -> Alcotest.fail msg
      in
      Alcotest.(check string) "coalesced replies identical" (payload !r1)
        (payload !r2);
      Alcotest.(check int) "both completions counted" 2 c.Server.completed)

let test_serve_overload () =
  let gate = make_gate () in
  set_gate gate false;
  let configure socket =
    { (Server.default_config socket) with Server.queue_capacity = 1 }
  in
  with_server ~configure ~gate (fun server socket ->
      let t1, r1 = spawn_predict socket (predict asm_a) in
      let c = Server.counters server in
      poll_until "queue filled" (fun () -> c.Server.accepted = 1);
      (* a distinct block cannot coalesce and the queue is full: the
         refusal must be immediate and typed, not a hang *)
      let t2, r2 = spawn_predict socket (predict asm_b) in
      Thread.join t2;
      (match !r2 with
      | Ok (Wire.Refused (Wire.Overloaded, msg)) ->
        Alcotest.(check bool) "refusal names the queue" true
          (contains ~needle:"queue full" msg)
      | Ok _ -> Alcotest.fail "overload not refused"
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check int) "shed counted" 1 c.Server.shed_overload;
      set_gate gate true;
      Thread.join t1;
      (match !r1 with
      | Ok (Wire.Result _) -> ()
      | _ -> Alcotest.fail "queued request must still complete"))

let test_serve_deadline_shed () =
  let gate = make_gate () in
  set_gate gate false;
  with_server ~gate (fun server socket ->
      let t1, r1 = spawn_predict socket (predict ~deadline_ms:1 asm_c) in
      let c = Server.counters server in
      poll_until "request queued" (fun () -> c.Server.accepted = 1);
      Thread.delay 0.02;
      (* deadline long expired by the time the dispatcher runs *)
      set_gate gate true;
      Thread.join t1;
      (match !r1 with
      | Ok (Wire.Refused (Wire.Deadline_exceeded, _)) -> ()
      | Ok _ -> Alcotest.fail "expired deadline not shed"
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check int) "deadline shed counted" 1 c.Server.shed_deadline)

(* Regression: the entry's deadline must be the LOOSEST across its
   coalesced waiters. A client that attached with no deadline must not
   be answered Deadline_exceeded on account of the first requester's
   1ms budget — the entry runs, and everyone gets the result. *)
let test_serve_coalesced_deadline_loosens () =
  let gate = make_gate () in
  set_gate gate false;
  with_server ~gate (fun server socket ->
      let t1, r1 = spawn_predict socket (predict ~deadline_ms:1 asm_a) in
      let c = Server.counters server in
      poll_until "first request queued" (fun () -> c.Server.accepted = 1);
      let t2, r2 = spawn_predict socket (predict asm_a) in
      poll_until "second request coalesced" (fun () -> c.Server.coalesced = 1);
      (* let the first requester's deadline expire thoroughly *)
      Thread.delay 0.02;
      set_gate gate true;
      Thread.join t1;
      Thread.join t2;
      (match !r2 with
      | Ok (Wire.Result _) -> ()
      | Ok (Wire.Refused (Wire.Deadline_exceeded, _)) ->
        Alcotest.fail "no-deadline waiter shed on a coalesced deadline"
      | Ok _ -> Alcotest.fail "no-deadline waiter refused"
      | Error msg -> Alcotest.fail msg);
      (* the entry survived, so the impatient requester gets the (late)
         result too rather than a refusal *)
      (match !r1 with
      | Ok (Wire.Result _) -> ()
      | _ -> Alcotest.fail "deadlined requester should ride the kept entry");
      Alcotest.(check int) "nothing shed" 0 c.Server.shed_deadline)

let test_serve_batch_identity () =
  (* one v2 batch frame must produce exactly the slot bodies the v1
     path produces for the same blocks, in request order *)
  let asms = [ asm_a; asm_b; asm_c ] in
  let results what = function
    | Wire.Results slots ->
      List.map
        (function
          | Wire.Result r -> Json.to_string ~compact:true r
          | _ -> Alcotest.fail (what ^ ": batch slot refused"))
        slots
    | _ -> Alcotest.fail (what ^ ": batch request refused")
  in
  let singles =
    with_server ~shards:2 (fun _server socket ->
        match Client.connect ~retries:20 socket with
        | Error msg -> Alcotest.fail msg
        | Ok c ->
          let singles =
            List.map
              (fun asm ->
                match request_exn "v1 predict" c (predict asm) with
                | Wire.Result r -> Json.to_string ~compact:true r
                | _ -> Alcotest.fail "v1 predict refused")
              asms
          in
          Alcotest.(check (list string)) "batch slots match v1 answers"
            singles
            (results "cached" (request_exn "v2 batch" c (batch asms)));
          (* a bad slot is refused in place without poisoning its
             neighbours *)
          (match
             request_exn "mixed batch" c (batch [ asm_a; "not asm!"; asm_b ])
           with
          | Wire.Results
              [ Wire.Result _; Wire.Refused (Wire.Bad_request, _); Wire.Result _ ]
            -> ()
          | _ -> Alcotest.fail "mixed batch not refused slot-wise");
          Client.close c;
          singles)
  in
  (* the slots above replay the answer cache the v1 requests filled; a
     fresh server computes them *)
  with_server ~shards:2 (fun _server socket ->
      match Client.connect ~retries:20 socket with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
        Alcotest.(check (list string)) "computed batch slots match v1 answers"
          singles
          (results "computed" (request_exn "v2 batch" c (batch asms)));
        let stat = stats_counters c in
        Alcotest.(check (option (float 0.0))) "every slot executed"
          (Some 3.0) (stat [ "serving"; "executed" ]);
        Alcotest.(check (option (float 0.0))) "no warm hits" (Some 0.0)
          (stat [ "serving"; "warm_hits" ]);
        Client.close c)

(* The dispatcher's warm path: a daemon over a store that a separate
   engine filled answers through [Engine.peek], with no execution and
   no profiler call, in the bytes that engine rendered. *)
let test_serve_warm_store () =
  Test_store.with_store_dir "bhive_serve_warm" (fun dir ->
      let job =
        {
          Engine.env =
            Manifest.Spec.environment_of_filters Manifest.Spec.default_filters;
          uarch = Uarch.All.haswell;
          block = Result.get_ok (X86.Parser.block asm_a);
        }
      in
      let warm =
        Engine.create ~jobs:1 ~faults:Faultsim.none ~store:(Store.open_ dir) ()
      in
      let local =
        Json.to_string ~compact:true
          (Wire.outcome_json (Engine.run_batch warm [ job ]).Engine.outcomes.(0))
      in
      Option.iter Store.close (Engine.store warm);
      let store = Store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          with_server ~store (fun _server socket ->
              match Client.connect ~retries:20 socket with
              | Error msg -> Alcotest.fail msg
              | Ok c ->
                (match request_exn "predict" c (predict asm_a) with
                | Wire.Result r ->
                  Alcotest.(check string) "store answer byte-identical" local
                    (Json.to_string ~compact:true r)
                | _ -> Alcotest.fail "predict refused");
                let stat = stats_counters c in
                List.iter
                  (fun (path, v) ->
                    Alcotest.(check (option (float 0.0)))
                      (String.concat "." path) (Some v) (stat path))
                  [
                    ([ "serving"; "warm_hits" ], 1.0);
                    ([ "serving"; "executed" ], 0.0);
                    ([ "engine"; "profiler_calls" ], 0.0);
                    ([ "engine"; "store_hits" ], 1.0);
                  ];
                Client.close c)))

let test_serve_shard_determinism () =
  (* the determinism matrix: answers must not depend on the pool size *)
  let answers shards =
    with_server ~shards (fun _server socket ->
        match Client.connect ~retries:20 socket with
        | Error msg -> Alcotest.fail msg
        | Ok c ->
          let out =
            List.map
              (fun asm ->
                match request_exn "predict" c (predict asm) with
                | Wire.Result r -> Json.to_string ~compact:true r
                | _ -> Alcotest.fail "predict refused")
              [ asm_a; asm_b; asm_c ]
          in
          Client.close c;
          out)
  in
  let one = answers 1 in
  Alcotest.(check (list string)) "2 shards = 1 shard" one (answers 2);
  Alcotest.(check (list string)) "4 shards = 1 shard" one (answers 4)

let test_serve_shed_inflight_hygiene () =
  (* a dispatch-shed entry must leave the coalescing map with it: a
     later duplicate of the shed fingerprint gets a fresh measurement,
     never an attachment to the dead entry *)
  let gate = make_gate () in
  set_gate gate false;
  with_server ~gate (fun server socket ->
      let t1, r1 = spawn_predict socket (predict ~deadline_ms:1 asm_a) in
      let c = Server.counters server in
      poll_until "request queued" (fun () -> c.Server.accepted = 1);
      Thread.delay 0.02;
      set_gate gate true;
      Thread.join t1;
      (match !r1 with
      | Ok (Wire.Refused (Wire.Deadline_exceeded, _)) -> ()
      | Ok _ -> Alcotest.fail "expired deadline not shed"
      | Error msg -> Alcotest.fail msg);
      (* same fingerprint again: must be admitted as a NEW entry *)
      set_gate gate false;
      let t2, r2 = spawn_predict socket (predict asm_a) in
      poll_until "duplicate re-admitted" (fun () -> c.Server.accepted = 2);
      Alcotest.(check int) "no coalescing onto the shed entry" 0
        c.Server.coalesced;
      set_gate gate true;
      Thread.join t2;
      match !r2 with
      | Ok (Wire.Result _) -> ()
      | Ok _ -> Alcotest.fail "re-admitted duplicate refused"
      | Error msg -> Alcotest.fail msg)

let test_serve_drain () =
  with_server (fun server socket ->
      match Client.connect ~retries:20 socket with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
        (* a request before the drain completes normally *)
        (match request_exn "pre-drain predict" c (predict asm_a) with
        | Wire.Result _ -> ()
        | _ -> Alcotest.fail "pre-drain request refused");
        Server.request_drain server;
        (* the connection is still open: further work is refused with
           the drain's own refusal kind *)
        (match request_exn "post-drain predict" c (predict asm_b) with
        | Wire.Refused (Wire.Shutting_down, _) -> ()
        | _ -> Alcotest.fail "draining server accepted new work");
        Client.close c)
  (* with_server joins the run thread: returning at all proves the
     drain terminates, and the socket file is removed by run *)

let suite =
  [
    Alcotest.test_case "eintr: retry loop" `Quick test_eintr_intr;
    Alcotest.test_case "eintr: really read/write" `Quick test_eintr_really_rw;
    Alcotest.test_case "wire: framing" `Quick test_wire_framing;
    Alcotest.test_case "wire: request round-trip" `Quick
      test_wire_request_roundtrip;
    Alcotest.test_case "wire: response round-trip" `Quick
      test_wire_response_roundtrip;
    Alcotest.test_case "serve: round-trip byte-identity" `Quick
      test_serve_roundtrip_byte_identity;
    Alcotest.test_case "serve: bad requests refused" `Quick
      test_serve_bad_requests;
    Alcotest.test_case "serve: coalescing" `Quick test_serve_coalescing;
    Alcotest.test_case "serve: overload refusal" `Quick test_serve_overload;
    Alcotest.test_case "serve: deadline shed" `Quick test_serve_deadline_shed;
    Alcotest.test_case "serve: coalesced deadline loosens" `Quick
      test_serve_coalesced_deadline_loosens;
    Alcotest.test_case "serve: batch identity" `Quick test_serve_batch_identity;
    Alcotest.test_case "serve: warm store answers through peek" `Quick
      test_serve_warm_store;
    Alcotest.test_case "serve: shard determinism" `Quick
      test_serve_shard_determinism;
    Alcotest.test_case "serve: shed inflight hygiene" `Quick
      test_serve_shed_inflight_hygiene;
    Alcotest.test_case "serve: graceful drain" `Quick test_serve_drain;
  ]
