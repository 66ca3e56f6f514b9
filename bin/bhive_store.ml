(* bhive_store: inspect and maintain persistent measurement stores.

     bhive_store stats  DIR          counters and shard layout
     bhive_store verify DIR          full checksum re-scan; exit 1 on corruption
     bhive_store gc     DIR          compact: drop superseded generations
     bhive_store export DIR [FILE]   dump live records as JSONL (default stdout)
     bhive_store import DIR FILE     append records from a JSONL dump

   The export format is one object per line —
   {"key": <hex sha256>, "gen": <hex sha256>, "payload": <hex bytes>} —
   which is how a measured store ships as a dataset artifact (BHive
   publishes its measurements the same way). Import appends through the
   normal put path, so existing (key, generation) records are kept and
   the dump's records land in the right shards regardless of the
   exporting host. *)

open Cmdliner

let open_store path =
  match Store.open_ path with
  | s -> s
  | exception Failure msg ->
    prerr_endline ("bhive_store: " ^ msg);
    exit 2

let dir_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Store directory.")

let run_stats dir =
  let st = open_store dir in
  let s = Store.stats st in
  Printf.printf "store:          %s\n" s.Store.s_dir;
  Printf.printf "shards:         %d\n" s.Store.s_shards;
  Printf.printf "live records:   %d\n" s.Store.s_live;
  Printf.printf "total records:  %d\n" s.Store.s_records;
  Printf.printf "superseded:     %d\n" s.Store.s_superseded;
  Printf.printf "torn tails:     %d (truncated at open)\n" s.Store.s_torn;
  Printf.printf "stale segments: %d (incompatible writer)\n"
    s.Store.s_stale_segments;
  Printf.printf "bytes:          %d\n" s.Store.s_bytes;
  Printf.printf "open time:      %.6f s\n" s.Store.s_open_seconds;
  List.iter
    (fun ss ->
      if ss.Store.ss_records > 0 || ss.Store.ss_live > 0 then
        Printf.printf
          "  shard %02d: %d live / %d records, %d bytes, open %.6f s\n"
          ss.Store.ss_shard ss.Store.ss_live ss.Store.ss_records
          ss.Store.ss_bytes ss.Store.ss_open_seconds)
    s.Store.s_per_shard;
  let gens = Store.gen_stats st in
  Printf.printf "generations:    %d\n" (List.length gens);
  List.iter
    (fun g ->
      Printf.printf "  gen %s…: %d live, %d bytes\n"
        (String.sub g.Store.g_gen 0 (min 12 (String.length g.Store.g_gen)))
        g.Store.g_live g.Store.g_bytes)
    gens;
  Store.close st

let run_verify dir =
  let st = open_store dir in
  let v = Store.verify st in
  Printf.printf "live records:   %d\n" v.Store.v_live;
  Printf.printf "records:        %d\n" v.Store.v_records;
  Printf.printf "corrupt:        %d\n" v.Store.v_corrupt;
  Printf.printf "torn at open:   %d\n" v.Store.v_torn;
  Printf.printf "stale segments: %d\n" v.Store.v_stale_segments;
  Store.close st;
  if v.Store.v_corrupt > 0 then begin
    prerr_endline "bhive_store: verify FAILED (checksum errors)";
    exit 1
  end
  else print_endline "verify OK"

let run_gc dir =
  let st = open_store dir in
  let g = Store.gc st in
  Printf.printf "live records:   %d\n" g.Store.g_live;
  Printf.printf "dropped:        %d\n" g.Store.g_dropped;
  Printf.printf "bytes:          %d -> %d\n" g.Store.g_bytes_before
    g.Store.g_bytes_after;
  Store.close st

let record_json ~key ~gen payload =
  Telemetry.Json.Object
    [
      ("key", Telemetry.Json.String key);
      ("gen", Telemetry.Json.String gen);
      ("payload", Telemetry.Json.String (Store.Codec.to_hex payload));
    ]

let run_export dir file =
  let st = open_store dir in
  let write oc =
    let n =
      Store.fold st ~init:0 ~f:(fun n ~key ~gen payload ->
          output_string oc
            (Telemetry.Json.to_string ~compact:true
               (record_json ~key ~gen payload));
          output_char oc '\n';
          n + 1)
    in
    n
  in
  let n =
    match file with
    | None -> write stdout
    | Some path -> Out_channel.with_open_bin path write
  in
  Store.close st;
  Printf.eprintf "exported %d records\n" n

let run_import dir file =
  let st = open_store dir in
  let lineno = ref 0 in
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline
          (Printf.sprintf "bhive_store: %s:%d: %s" file !lineno msg);
        exit 2)
      fmt
  in
  let imported = ref 0 and kept = ref 0 in
  In_channel.with_open_bin file (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          incr lineno;
          if String.trim line <> "" then begin
            let j =
              match Telemetry.Json.parse line with
              | Ok j -> j
              | Error msg -> bad "%s" msg
            in
            let field name =
              match
                Option.bind (Telemetry.Json.member name j)
                  Telemetry.Json.string_value
              with
              | Some s -> s
              | None -> bad "missing string field %S" name
            in
            let key = field "key" and gen = field "gen" in
            let payload =
              match Store.Codec.of_hex (field "payload") with
              | Some p -> p
              | None -> bad "payload is not valid hex"
            in
            match Store.put st ~key ~gen payload with
            | true -> incr imported
            | false -> incr kept
            | exception Invalid_argument msg -> bad "%s" msg
          end;
          loop ()
      in
      loop ());
  Store.close st;
  Printf.printf "imported %d records (%d already present)\n" !imported !kept

let cmd =
  let stats =
    Cmd.v
      (Cmd.info "stats" ~doc:"Print store counters and shard layout.")
      Term.(const run_stats $ dir_pos)
  in
  let verify =
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-scan every segment and re-check every record checksum; \
            exit 1 on corruption.")
      Term.(const run_verify $ dir_pos)
  in
  let gc =
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Compact the store: rewrite live records and drop superseded \
            generations, torn tails and stale segments.")
      Term.(const run_gc $ dir_pos)
  in
  let export =
    let file =
      Arg.(
        value
        & pos 1 (some string) None
        & info [] ~docv:"FILE" ~doc:"Output JSONL file (default stdout).")
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:"Dump live records as JSONL, key-sorted (a dataset artifact).")
      Term.(const run_export $ dir_pos $ file)
  in
  let import =
    let file =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"FILE" ~doc:"Input JSONL file from $(b,export).")
    in
    Cmd.v
      (Cmd.info "import" ~doc:"Append records from a JSONL dump.")
      Term.(const run_import $ dir_pos $ file)
  in
  Cmd.group
    (Cmd.info "bhive_store"
       ~doc:"Inspect and maintain persistent measurement stores.")
    [ stats; verify; gc; export; import ]

let () = Cli_common.eval cmd
