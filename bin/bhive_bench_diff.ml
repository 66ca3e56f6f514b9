(* bhive_bench_diff: compare two bench_summary.json files and exit
   non-zero when the perf trajectory regressed — the CI gate.

     bhive_bench_diff [--identical] [--gate GATE]... BASELINE CURRENT

   See Telemetry.Bench_diff for the gate language and the fixed
   checks; --help shows the gate grammar and the exit codes. *)

open Cmdliner
module Bench_diff = Telemetry.Bench_diff
module Json = Telemetry.Json

let fail msg =
  prerr_endline msg;
  exit 2

(* Read, parse and schema-check one summary (pre-v5 summaries cannot
   prove they measured the same experiment), or exit 2. *)
let read what path =
  let checked j = Result.map (fun () -> j) (Bench_diff.check_schema j) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
    fail (Printf.sprintf "cannot read %s summary: %s" what msg)
  | text -> (
    match Result.bind (Json.parse text) checked with
    | Error msg -> fail (Printf.sprintf "%s summary %s: %s" what path msg)
    | Ok j ->
      let field k =
        Option.fold ~none:"?" ~some:(Json.to_string ~compact:true)
          (Json.member k j)
      in
      Printf.printf "%-8s: scale=%s rev=%s\n" what (field "scale")
        (field "rev");
      j)

let run identical gates baseline current =
  (* every gate is parsed before any summary is read *)
  let gates =
    List.map
      (fun g ->
        match Bench_diff.parse_gate g with Ok g -> g | Error e -> fail e)
      gates
  in
  let baseline = read "baseline" baseline in
  let current = read "current" current in
  let report =
    Bench_diff.compare_summaries ~identical ~gates ~baseline ~current ()
  in
  Bench_diff.pp_report Format.std_formatter report;
  exit (Bench_diff.exit_code report)

let man =
  [
    `S "GATES";
    `P
      "A gate is $(b,[warn ]PATH OP BOUND). PATH is a dotted JSON path; \
       $(b,sections.*.F) applies F to each baseline section, matched by \
       name. OP is <=, >= or ==; a value exactly at its bound passes. \
       BOUND is N, Kx (K times the baseline's value at PATH) or Kx + N, \
       with finite JSON numbers. $(b,warn) makes a violation a warning.";
    `P
      "A gate fails where the current summary has no number at PATH. A Kx \
       bound also fails where the baseline has none, or has 0 and no \
       nonzero + N. Examples:";
    `Pre
      "  --gate 'perf.blocks_per_sec >= 0.8x'\n\
      \  --gate 'warn perf.blocks_per_sec >= 1x'\n\
      \  --gate 'serving.lost == 0'\n\
      \  --gate 'refine.final_error <= 0.005'\n\
      \  --gate 'sections.*.wall_seconds <= 1.5x + 1'";
    `P
      "Unless $(b,--identical) is given, these default gates apply, each \
       skipped where it cannot be evaluated:";
    `Pre
      (String.concat "\n"
         (List.map (fun g -> "  " ^ Bench_diff.gate_text g)
            Bench_diff.default_gates));
    `S Manpage.s_exit_status;
    `P
      "1 on a regression, 2 on a command-line error, a malformed gate or an \
       unreadable or pre-v5 summary, 3 when the manifest experiment ids \
       differ.";
  ]

let cmd =
  let summary n docv doc =
    Arg.(required & pos n (some string) None & info [] ~docv ~doc)
  in
  let identical =
    Arg.(
      value & flag
      & info [ "identical" ]
          ~doc:
            "Require the summaries to be identical after stripping volatile \
             fields, in place of the default gates.")
  in
  let gates =
    Arg.(
      value & opt_all string []
      & info [ "gate" ] ~docv:"GATE" ~doc:"Add a gate (see GATES); repeatable.")
  in
  Cmd.v
    (Cmd.info "bhive_bench_diff" ~man
       ~doc:"Gate on bench_summary.json regressions between two revisions.")
    Term.(
      const run $ identical $ gates
      $ summary 0 "BASELINE" "Baseline bench_summary.json."
      $ summary 1 "CURRENT" "Freshly generated bench_summary.json.")

let () = Cli_common.eval cmd
