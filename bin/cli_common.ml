(* Shared CLI plumbing: every executable in this directory is a thin
   wrapper that synthesizes a manifest and hands it to
   [Manifest.Runner]. This module owns the one copy of the shared
   flags — --jobs, --store, --faults, --max-retries, --trace,
   --emit-manifest — and the exit-code policy, so the wrappers contain
   only their experiment-specific flags.

   [setup] also validates every engine-relevant environment variable
   up front: a malformed BHIVE_JOBS / BHIVE_FAULTS / BHIVE_STORE is a
   one-line error and exit 2, never a silent fallback. *)

open Cmdliner

let faults_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Faultsim.parse s)),
      fun fmt c -> Format.pp_print_string fmt (Faultsim.to_string c) )

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic worker-crash injection, as a comma-separated spec: \
           $(b,crash=0.03,seed=7). Overrides \\$BHIVE_FAULTS; $(b,none) \
           disables injection.")

let max_retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Retries after a job's first crashed attempt before it is \
           quarantined (default 4).")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent measurement store directory — the engine's disk cache \
           tier. Measured results are appended to it and warm runs are \
           served from it without re-profiling. Overrides \\$BHIVE_STORE.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Measurement worker domains (default \\$BHIVE_JOBS or the \
           machine's recommended domain count). Results are identical for \
           any value.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Stream a JSONL span trace of the run to PATH. Overrides \
           \\$BHIVE_TRACE.")

let emit_arg =
  Arg.(
    value & flag
    & info [ "emit-manifest" ]
        ~doc:
          "Print the manifest this invocation would execute (as canonical \
           JSON) and exit without running it. The output is a valid input \
           for $(b,bhive_run).")

type setup = { overrides : Manifest.Runner.overrides; emit : bool }

(* Evaluates before the command body runs: environment validation and
   trace installation happen exactly once per process. *)
let setup : setup Term.t =
  let apply faults max_retries store jobs trace emit =
    (match Engine.validate_env () with
    | Ok () -> ()
    | Error msg ->
      prerr_endline ("bhive: " ^ msg);
      exit 2);
    (match trace with
    | Some path -> Telemetry.Trace.install_file path
    | None -> Telemetry.Trace.init_from_env ());
    {
      overrides =
        {
          Manifest.Runner.o_jobs = jobs;
          o_store = store;
          o_faults = faults;
          o_max_retries = max_retries;
        };
      emit;
    }
  in
  Term.(
    const apply $ faults_arg $ max_retries_arg $ store_arg $ jobs_arg
    $ trace_arg $ emit_arg)

(* Exit-code policy, shared by every wrapper and bhive_run itself:
   0 success, 1 lost jobs, 2 invalid command line / manifest /
   environment / output paths, 3 interrupted (--max-sections stopped
   before the last section). *)
let run_spec ?fresh ?max_sections ?kill_after_jobs (s : setup) spec =
  if s.emit then begin
    print_string (Manifest.Spec.to_string spec);
    exit 0
  end;
  match
    Manifest.Runner.run ~overrides:s.overrides ?fresh ?max_sections
      ?kill_after_jobs spec
  with
  | exception Manifest.Runner.Killed ->
    prerr_endline "bhive: killed (--kill-after-jobs)";
    exit 3
  | Error msg ->
    prerr_endline ("bhive: " ^ msg);
    exit 2
  | Ok (o : Manifest.Runner.outcome) ->
    if o.lost <> 0 then begin
      Printf.eprintf "FATAL: %d job(s) lost\n" o.lost;
      exit 1
    end;
    if o.interrupted then exit 3;
    exit 0

(* Evaluate a wrapper's command under that policy: a command-line error
   (an unknown flag, a malformed --faults spec) is cmdliner's one-line
   message on stderr and exit 2, where cmdliner alone would add a usage
   block and exit 124. *)
let eval cmd =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  Format.pp_set_margin err 1_000_000;
  let result = Cmd.eval_value ~err cmd in
  Format.pp_print_flush err ();
  match result with
  | Ok _ -> exit 0
  | Error (`Parse | `Term) ->
    prerr_endline (List.hd (String.split_on_char '\n' (Buffer.contents buf)));
    exit 2
  | Error `Exn ->
    prerr_string (Buffer.contents buf);
    exit Cmd.Exit.internal_error
