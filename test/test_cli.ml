(* The exit-code policy of every executable in bin/: an unknown flag is
   one line on stderr and exit 2 (Cli_common.eval), not cmdliner's
   usage block and exit 124. *)

let binaries =
  [
    "bhive_run"; "bhive_profile"; "bhive_validate"; "bhive_classify"; "bhive_corpus";
    "bhive_exegesis"; "bhive_bench_diff"; "bhive_store"; "bhive_serve"; "bhive_load";
    "bhive_refine";
  ]

(* Run [exe args], stdin and stdout on /dev/null; its exit code and its
   stderr lines. *)
let run exe args =
  let err = Filename.temp_file "bhive_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Fun.protect
          ~finally:(fun () ->
            Unix.close null;
            Unix.close fd)
          (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null null fd)
      in
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | _ -> Alcotest.failf "%s: killed by a signal" exe
      in
      let lines =
        String.split_on_char '\n' (In_channel.with_open_bin err In_channel.input_all)
        |> List.filter (fun l -> l <> "")
      in
      (code, lines))

let test_unknown_flag () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "../bin" in
  List.iter
    (fun name ->
      let code, lines = run (Filename.concat dir (name ^ ".exe")) [ "--no-such-flag" ] in
      Alcotest.(check int) (name ^ ": exit code") 2 code;
      Alcotest.(check int)
        (Printf.sprintf "%s: stderr lines (%s)" name (String.concat " | " lines))
        1 (List.length lines))
    binaries

let suite = [ Alcotest.test_case "unknown flag: one line, exit 2" `Quick test_unknown_flag ]
