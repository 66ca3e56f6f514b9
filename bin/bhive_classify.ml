(* bhive_classify: fit the LDA category model on the generated suite and
   print the category table, per-application composition and exemplars.
   A thin wrapper around a classification manifest. *)

open Cmdliner

let spec scale exemplars =
  let sections =
    [
      Manifest.Spec.section Manifest.Spec.Classifier;
      Manifest.Spec.section Manifest.Spec.Categories;
      Manifest.Spec.section
        (Manifest.Spec.Composition { title = "Per-application composition" });
    ]
    @
    if exemplars then [ Manifest.Spec.section Manifest.Spec.Exemplars ]
    else []
  in
  Manifest.Spec.make ~name:"classify" ~scale ~sections ()

let run setup scale exemplars = Cli_common.run_spec setup (spec scale exemplars)

let cmd =
  let scale =
    Arg.(value & opt int 100 & info [ "s"; "scale" ] ~doc:"Corpus scale divisor.")
  in
  let exemplars =
    Arg.(value & flag & info [ "e"; "exemplars" ] ~doc:"Print one example block per category.")
  in
  Cmd.v
    (Cmd.info "bhive_classify" ~doc:"Classify the benchmark suite into port-usage categories")
    Term.(const run $ Cli_common.setup $ scale $ exemplars)

let () = Cli_common.eval cmd
