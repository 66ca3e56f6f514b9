(* bhive_refine: perturb a descriptor's instruction tables with a
   pinned seed, then run the lib/refine search that recovers them from
   counter discrepancies — the CounterPoint-style repair loop as a CLI.
   A thin wrapper: the flags synthesize a one-section manifest
   (printable with --emit-manifest, resumable through --journal) which
   [Manifest.Runner] executes. *)

open Cmdliner

(* "--perturb seed=S,edits=N": both keys optional, order free. *)
let perturb_parse s =
  let default = (1L, 2) in
  let parse_kv (seed, edits) kv =
    match String.index_opt kv '=' with
    | None -> Error (`Msg (Printf.sprintf "perturb: %S is not key=value" kv))
    | Some i -> (
      let k = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      match k with
      | "seed" -> (
        match Int64.of_string_opt v with
        | Some s -> Ok (s, edits)
        | None -> Error (`Msg (Printf.sprintf "perturb: bad seed %S" v)))
      | "edits" -> (
        match int_of_string_opt v with
        | Some e when e >= 1 -> Ok (seed, e)
        | _ -> Error (`Msg (Printf.sprintf "perturb: bad edits %S" v)))
      | _ -> Error (`Msg (Printf.sprintf "perturb: unknown key %S" k)))
  in
  List.fold_left
    (fun acc kv -> Result.bind acc (fun st -> parse_kv st kv))
    (Ok default)
    (String.split_on_char ',' (String.trim s))

let perturb_conv =
  Arg.conv
    ( perturb_parse,
      fun fmt (seed, edits) ->
        Format.fprintf fmt "seed=%Ld,edits=%d" seed edits )

let spec scale uarch (seed, edits) target_error max_evals summary journal =
  Manifest.Spec.make ~name:"refine" ~scale ~uarches:[ uarch ]
    ~output:{ Manifest.Spec.default_output with summary; journal }
    ~sections:
      [
        Manifest.Spec.section
          (Manifest.Spec.Refine
             { uarch; seed; edits; target_error; max_evals });
      ]
    ()

let run setup scale uarch perturb target_error max_evals summary journal
    fresh =
  Cli_common.run_spec ~fresh setup
    (spec scale uarch perturb target_error max_evals summary journal)

let cmd =
  let scale =
    Arg.(
      value & opt int 100
      & info [ "s"; "scale" ]
          ~doc:"Corpus scale divisor (1 = full paper-sized suite).")
  in
  let uarch =
    Arg.(
      value & opt string "ivb"
      & info [ "u"; "uarch" ] ~docv:"SHORT"
          ~doc:"Microarchitecture whose descriptor is perturbed and repaired.")
  in
  let perturb =
    Arg.(
      value
      & opt perturb_conv (1L, 2)
      & info [ "perturb" ] ~docv:"SPEC"
          ~doc:
            "Deterministic table breakage, e.g. \
             $(b,seed=42,edits=3): perturb that many entries as a pure \
             function of the seed. The same spec always breaks the same \
             entries.")
  in
  let target_error =
    Arg.(
      value & opt float 0.05
      & info [ "target-error" ] ~docv:"ERR"
          ~doc:
            "Stop as soon as the candidate's mean relative throughput error \
             against the reference drops to ERR or below.")
  in
  let max_evals =
    Arg.(
      value & opt int 200
      & info [ "max-evals" ] ~docv:"N"
          ~doc:"Candidate-evaluation budget, including the baseline.")
  in
  let summary =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"PATH"
          ~doc:
            "Write a bench_summary.json (schema v9, with the $(b,refine) \
             object) to PATH.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Run journal: every candidate evaluation is appended as it \
             completes, and re-running with the same journal resumes the \
             search mid-way instead of restarting it.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:"Discard an existing journal instead of resuming from it.")
  in
  Cmd.v
    (Cmd.info "bhive_refine"
       ~doc:
         "Recover perturbed descriptor tables from counter discrepancies")
    Term.(
      const run $ Cli_common.setup $ scale $ uarch $ perturb $ target_error
      $ max_evals $ summary $ journal $ fresh)

let () = Cli_common.eval cmd
