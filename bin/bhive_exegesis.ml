(* bhive_exegesis: per-instruction latency / reciprocal-throughput /
   micro-op characterisation via automatically generated micro-benchmarks
   run through the block profiler (the llvm-exegesis role from the
   paper's background section). A thin wrapper around a
   characterisation manifest. *)

open Cmdliner

let spec uarch ports =
  let sections =
    Manifest.Spec.section (Manifest.Spec.Instruction_table { uarch })
    ::
    (if ports then
       [ Manifest.Spec.section (Manifest.Spec.Port_mapping { uarch }) ]
     else [])
  in
  Manifest.Spec.make ~name:"exegesis" ~uarches:[ uarch ] ~sections ()

let run setup uarch ports = Cli_common.run_spec setup (spec uarch ports)

let cmd =
  let uarch =
    Arg.(value & opt string "hsw" & info [ "u"; "uarch" ] ~doc:"Microarchitecture: ivb, hsw or skl.")
  in
  let ports =
    Arg.(value & flag & info [ "p"; "ports" ] ~doc:"Also infer port mappings with blocker probes.")
  in
  Cmd.v
    (Cmd.info "bhive_exegesis" ~doc:"Measure per-instruction latency and throughput with generated micro-benchmarks")
    Term.(const run $ Cli_common.setup $ uarch $ ports)

let () = Cli_common.eval cmd
