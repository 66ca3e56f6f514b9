(* bhive_serve: the prediction daemon. Listens on a Unix socket,
   answers length-prefixed predict requests through a sharded pool of
   engines (memo cache -> shared persistent store -> profiler), and
   degrades under overload into typed refusals instead of hangs:

   - sharded dispatch: --shards dispatcher domains (default: one per
     spare core), each owning one engine, with requests routed by job
     fingerprint so coalescing stays exact and answers never depend on
     the pool size;
   - admission control: bounded per-shard queues; a request that does
     not fit is refused with [overloaded] immediately;
   - coalescing: concurrent requests for the same job fingerprint
     share one in-flight measurement;
   - multi-process store sharing: several daemons may point --store at
     the same directory — per-shard advisory file locks serialise
     writers, so a kill -9'd sibling never corrupts a record. Within
     this process all shard engines share ONE store handle (the file
     locks are per-process);
   - graceful drain: SIGTERM/SIGINT stop accepting, finish (or shed,
     past --drain-grace) queued work, flush telemetry, exit 0.

   See DESIGN.md §10-§12 for the wire protocol, the drain state
   machine and the shard pool; bhive_load is the matching load
   generator. *)

open Cmdliner

let run socket store shards trace queue_capacity batch_max idle_timeout
    write_timeout drain_grace =
  (match Result.bind (Engine.validate_env ()) (Telemetry.Trace.init ?path:trace) with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("bhive_serve: " ^ msg);
    exit 2);
  if queue_capacity < 1 || batch_max < 1 then begin
    prerr_endline "bhive_serve: --queue-capacity and --batch-max must be >= 1";
    exit 2
  end;
  let nshards =
    match shards with
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  if nshards < 1 then begin
    prerr_endline "bhive_serve: --shards must be >= 1";
    exit 2
  end;
  (* one store handle for the whole pool: the store's cross-process
     file locks are per-process, so per-engine opens of the same
     directory would break intra-process append exclusion *)
  let store_path =
    match store with
    | Some _ as p -> p
    | None -> Result.value ~default:None (Engine.store_path_from_env ())
  in
  let shared_store = Option.map Store.open_ store_path in
  let engines =
    Array.init nshards (fun _ ->
        Engine.create ~jobs:1 ?store:shared_store ())
  in
  let config =
    {
      (Serve.Server.default_config socket) with
      queue_capacity;
      batch_max;
      idle_timeout;
      write_timeout;
      drain_grace;
    }
  in
  let server =
    match Serve.Server.create ~config ~engines socket with
    | s -> s
    | exception Failure msg ->
      prerr_endline ("bhive_serve: " ^ msg);
      exit 2
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "bhive_serve: cannot listen on %s: %s\n" socket
        (Unix.error_message e);
      exit 2
  in
  Printf.eprintf "bhive_serve: pid %d listening on %s (%d shards)\n%!"
    (Unix.getpid ()) socket nshards;
  Serve.Server.run server;
  let c = Serve.Server.counters server in
  Printf.eprintf
    "bhive_serve: drained — %d conns, %d requests (%d accepted, %d coalesced, \
     %d warm), shed %d/%d/%d (overload/deadline/drain)\n%!"
    c.Serve.Server.connections c.requests c.accepted c.coalesced c.warm_hits
    c.shed_overload c.shed_deadline c.shed_drain;
  Telemetry.Trace.uninstall ();
  exit 0

let cmd =
  let socket =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Unix socket path to listen on.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:"Stream a JSONL span trace to PATH. Overrides \\$BHIVE_TRACE.")
  in
  let d = Serve.Server.default_config "" in
  let queue_capacity =
    Arg.(
      value
      & opt int d.Serve.Server.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Admission-control bound: queued (not yet dispatched) requests \
             beyond N are refused with $(b,overloaded).")
  in
  let batch_max =
    Arg.(
      value
      & opt int d.Serve.Server.batch_max
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Maximum queued requests dispatched as one engine batch.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float d.Serve.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close a connection idle between requests for this long.")
  in
  let write_timeout =
    Arg.(
      value
      & opt float d.Serve.Server.write_timeout
      & info [ "write-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Budget for writing one response; a slower client's connection \
             is dropped so it cannot wedge a handler.")
  in
  let drain_grace =
    Arg.(
      value
      & opt float d.Serve.Server.drain_grace
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:
            "After SIGTERM/SIGINT, finish queued work for this long; \
             whatever remains is shed with $(b,shutting_down).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Dispatcher pool size: N domains, each owning one engine. \
             Defaults to one per spare core.")
  in
  let term =
    Term.(
      const run $ socket $ Cli_common.store_arg $ shards $ trace
      $ queue_capacity $ batch_max $ idle_timeout $ write_timeout $ drain_grace)
  in
  Cmd.v
    (Cmd.info "bhive_serve"
       ~doc:
         "Overload-safe prediction daemon: serve basic-block throughput \
          predictions over a Unix socket.")
    term

let () = Cli_common.eval cmd
