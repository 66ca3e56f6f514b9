(* bhive_corpus: dump generated basic blocks as assembly text, optionally
   filtered by application — useful for feeding other tools or eyeballing
   what the generators produce. A thin wrapper around a one-section
   dump manifest. *)

open Cmdliner

let spec scale app limit freq =
  Manifest.Spec.make ~name:"corpus" ~scale
    ~sections:
      [
        Manifest.Spec.section
          (Manifest.Spec.Corpus_dump { variant = "extended"; app; limit; freq });
      ]
    ()

let run setup scale app limit freq =
  Cli_common.run_spec setup (spec scale app limit freq)

let cmd =
  let scale =
    Arg.(value & opt int 400 & info [ "s"; "scale" ] ~doc:"Corpus scale divisor.")
  in
  let app_arg =
    Arg.(value & opt (some string) None & info [ "a"; "app" ] ~doc:"Only blocks from this application.")
  in
  let limit =
    Arg.(value & opt (some int) None & info [ "n"; "limit" ] ~doc:"Print at most this many blocks.")
  in
  let with_freq =
    Arg.(value & flag & info [ "f"; "freq" ] ~doc:"Include execution frequencies.")
  in
  Cmd.v
    (Cmd.info "bhive_corpus" ~doc:"Dump generated benchmark-suite basic blocks as assembly")
    Term.(const run $ Cli_common.setup $ scale $ app_arg $ limit $ with_freq)

let () = Cli_common.eval cmd
