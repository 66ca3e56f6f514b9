(* bhive_profile: profile one basic block, given as assembly text, on a
   chosen microarchitecture — the command-line face of the measurement
   framework. A thin wrapper: the input and flags synthesize a
   one-section manifest (printable with --emit-manifest).

     echo 'xor edx, edx
           div ecx' | dune exec bin/bhive_profile.exe -- --uarch hsw -
     dune exec bin/bhive_profile.exe -- --uarch skl block.s *)

open Cmdliner

let read_input = function
  | "-" -> In_channel.input_all In_channel.stdin
  | path -> (
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      prerr_endline ("bhive: " ^ msg);
      exit 2)

let spec uarch naive_unroll keep_underflow keep_misaligned with_models
    schedule asm =
  Manifest.Spec.make ~name:"profile" ~uarches:[ uarch ]
    ~filters:
      {
        Manifest.Spec.default_filters with
        naive_unroll;
        keep_underflow;
        keep_misaligned;
      }
    ~sections:
      [
        Manifest.Spec.section
          (Manifest.Spec.Profile { asm; uarch; with_models; schedule });
      ]
    ()

let run setup uarch naive keep_underflow keep_misaligned with_models schedule
    file =
  let asm = read_input file in
  Cli_common.run_spec setup
    (spec uarch naive keep_underflow keep_misaligned with_models schedule asm)

let cmd =
  let uarch =
    Arg.(value & opt string "hsw" & info [ "u"; "uarch" ] ~doc:"Microarchitecture: ivb, hsw or skl.")
  in
  let naive =
    Arg.(value & opt (some int) None & info [ "naive-unroll" ] ~doc:"Use naive unrolling with the given factor instead of the two-point method.")
  in
  let keep_underflow =
    Arg.(value & flag & info [ "keep-gradual-underflow" ] ~doc:"Do not set FTZ/DAZ before measuring.")
  in
  let keep_misaligned =
    Arg.(value & flag & info [ "keep-misaligned" ] ~doc:"Do not reject blocks with cache-line-crossing accesses.")
  in
  let with_models =
    Arg.(value & flag & info [ "m"; "models" ] ~doc:"Also print the predictions of the cost models.")
  in
  let schedule =
    Arg.(value & flag & info [ "schedule" ] ~doc:"Dump the simulated core's execution schedule.")
  in
  let file =
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Assembly file ('-' for stdin). AT&T and Intel syntax accepted.")
  in
  Cmd.v
    (Cmd.info "bhive_profile" ~doc:"Measure the steady-state throughput of an x86-64 basic block")
    Term.(
      const run $ Cli_common.setup $ uarch $ naive $ keep_underflow
      $ keep_misaligned $ with_models $ schedule $ file)

let () = Cli_common.eval cmd
