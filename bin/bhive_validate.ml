(* bhive_validate: generate the suite, build ground-truth datasets, and
   evaluate the cost models — the Table V pipeline as a CLI. A thin
   wrapper: the flags synthesize a manifest (printable with
   --emit-manifest) which [Manifest.Runner] executes. *)

open Cmdliner

let spec scale uarches seed export =
  let sections =
    Manifest.Spec.section Manifest.Spec.Corpus_load
    :: (List.map
          (fun (u : Uarch.Descriptor.t) ->
            Manifest.Spec.section (Manifest.Spec.Dataset { uarch = u.short }))
          (match uarches with
          | [] -> Uarch.All.all
          | shorts -> List.filter_map Uarch.All.by_short shorts)
       @ [ Manifest.Spec.section Manifest.Spec.Validate ])
  in
  Manifest.Spec.make ~name:"validate" ~scale
    ?seed:(Option.map Int64.of_int seed)
    ~uarches
    ~output:
      { Manifest.Spec.default_output with export_prefix = export }
    ~sections ()

let run setup scale uarches seed export =
  Cli_common.run_spec setup (spec scale uarches seed export)

let cmd =
  let scale =
    Arg.(value & opt int 100 & info [ "s"; "scale" ] ~doc:"Corpus scale divisor (1 = full paper-sized suite).")
  in
  let uarches =
    Arg.(value & opt_all string [] & info [ "u"; "uarch" ] ~doc:"Microarchitecture to validate (repeatable); default all.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Corpus generation seed override.")
  in
  let export =
    Arg.(value & opt (some string) None & info [ "export" ] ~doc:"Write each measured dataset to PREFIX-<uarch>.csv." ~docv:"PREFIX")
  in
  Cmd.v
    (Cmd.info "bhive_validate" ~doc:"Validate the cost models against measured ground truth")
    Term.(const run $ Cli_common.setup $ scale $ uarches $ seed $ export)

let () = Cli_common.eval cmd
