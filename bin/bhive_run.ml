(* bhive_run: execute a declarative experiment manifest end-to-end.

     bhive_run examples/bench.manifest.json

   The run is journaled: each completed section's output is recorded
   in the manifest's journal file, and re-running the same manifest
   against the same store and journal replays completed sections and
   re-profiles nothing the store already holds. A killed run therefore
   resumes where it stopped, and the final summary is byte-identical
   (volatile fields aside) to an uninterrupted run's. *)

open Cmdliner

let load path =
  match Manifest.Spec.load path with
  | Ok spec -> spec
  | Error msg ->
    prerr_endline ("bhive: " ^ msg);
    exit 2

(* First SIGINT/SIGTERM: request a graceful stop — the runner finishes
   the in-progress section, appends its journal entry (the tail stays
   well-formed for resume) and exits 3 through the interrupted path. A
   second signal exits 3 immediately for a run that is stuck. *)
let install_interrupt_handlers () =
  let signalled = ref false in
  let handler =
    Sys.Signal_handle
      (fun _ ->
        if !signalled then exit 3;
        signalled := true;
        Manifest.Runner.request_interrupt ())
  in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler

let run setup path print_id fresh max_sections kill_after_jobs =
  let spec = load path in
  if print_id then begin
    Printf.printf "manifest   %s\n" (Manifest.Spec.id spec);
    Printf.printf "experiment %s\n" (Manifest.Spec.experiment_id spec);
    exit 0
  end;
  install_interrupt_handlers ();
  Cli_common.run_spec ?max_sections ?kill_after_jobs ~fresh setup spec

let cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MANIFEST" ~doc:"Path to a .manifest.json file.")
  in
  let print_id =
    Arg.(
      value & flag
      & info [ "print-id" ]
          ~doc:
            "Print the manifest id and experiment id (both SHA-256 over the \
             canonical encoding) and exit without running.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:
            "Discard the journal before running: every section re-executes \
             (the measurement store is untouched, so profiling still hits \
             warm entries).")
  in
  let max_sections =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-sections" ] ~docv:"N"
          ~doc:
            "Stop after the first N sections and exit 3 — simulates a kill \
             at a section boundary; re-running without this flag resumes.")
  in
  let kill_after_jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after-jobs" ] ~docv:"N"
          ~doc:
            "Testing hook: abort the process (uncleanly, mid-section) after \
             the Nth profiled job resolves.")
  in
  Cmd.v
    (Cmd.info "bhive_run" ~doc:"Execute a declarative experiment manifest")
    Term.(
      const run $ Cli_common.setup $ path $ print_id $ fresh $ max_sections
      $ kill_after_jobs)

let () = Cli_common.eval cmd
