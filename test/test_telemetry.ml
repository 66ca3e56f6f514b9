(* Tests for the telemetry layer: trace spans (nesting, JSONL
   round-trip, zero-allocation disabled path), metrics (counters,
   histogram bucketing), and the bench_diff regression gate. *)

module Json = Telemetry.Json
module Trace = Telemetry.Trace
module Metrics = Telemetry.Metrics
module Bench_diff = Telemetry.Bench_diff

(* Install a capturing sink, run [f], uninstall, and return the emitted
   JSONL records parsed back into JSON values. *)
let with_capture f =
  let lines = ref [] in
  Trace.install_custom
    ~write:(fun s -> lines := s :: !lines)
    ~close:(fun () -> ());
  Fun.protect ~finally:Trace.uninstall f;
  Trace.uninstall ();
  List.rev_map Json.parse_exn !lines

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "record missing field %S: %s" name (Json.to_string j)

let str name j =
  match field name j with
  | Json.String s -> s
  | v -> Alcotest.failf "field %S not a string: %s" name (Json.to_string v)

let num name j =
  match field name j with
  | Json.Number n -> n
  | v -> Alcotest.failf "field %S not a number: %s" name (Json.to_string v)

let find_record name records =
  match List.find_opt (fun r -> str "name" r = name) records with
  | Some r -> r
  | None -> Alcotest.failf "no record named %S emitted" name

(* --- Trace --- *)

let test_span_nesting () =
  let records =
    with_capture (fun () ->
        Trace.span "outer" (fun () ->
            Trace.span "inner" (fun () -> ());
            Trace.instant "mark"))
  in
  Alcotest.(check int) "three records" 3 (List.length records);
  let outer = find_record "outer" records in
  let inner = find_record "inner" records in
  let mark = find_record "mark" records in
  Alcotest.(check string) "instant type" "instant" (str "type" mark);
  Alcotest.(check (float 0.)) "outer is a root" 0. (num "parent" outer);
  Alcotest.(check (float 0.))
    "inner parented to outer" (num "id" outer) (num "parent" inner);
  Alcotest.(check (float 0.))
    "instant parented to outer" (num "id" outer) (num "parent" mark);
  Alcotest.(check bool)
    "inner closed no later than outer"
    true
    (num "dur_us" inner <= num "dur_us" outer)

let test_span_attrs_roundtrip () =
  let records =
    with_capture (fun () ->
        Trace.span "attrs"
          ~attrs:(fun () ->
            [
              ("b", Trace.Bool true);
              ("i", Trace.Int (-42));
              ("f", Trace.Float 2.5);
              ("s", Trace.Str "quote\" and \\slash\nnewline");
            ])
          (fun () -> ()))
  in
  let attrs = field "attrs" (find_record "attrs" records) in
  Alcotest.(check bool)
    "bool attr" true
    (match field "b" attrs with Json.Bool b -> b | _ -> false);
  Alcotest.(check (float 0.)) "int attr" (-42.) (num "i" attrs);
  Alcotest.(check (float 0.)) "float attr" 2.5 (num "f" attrs);
  Alcotest.(check string)
    "string attr escapes round-trip" "quote\" and \\slash\nnewline"
    (str "s" attrs)

let test_span_result_and_exceptions () =
  let got = ref 0 in
  let records =
    with_capture (fun () ->
        got := Trace.span "value" ~attrs:(fun v -> [ ("v", Trace.Int v) ]) (fun () -> 7);
        match
          Trace.span "boom" ~attrs:(fun () -> [ ("v", Trace.Int 0) ]) (fun () -> failwith "boom")
        with
        | () -> Alcotest.fail "exception swallowed"
        | exception Failure _ -> ())
  in
  Alcotest.(check int) "span returns body value" 7 !got;
  Alcotest.(check (float 0.)) "attrs get the body's value" 7.
    (num "v" (field "attrs" (find_record "value" records)));
  (* The span for the raising body must still be emitted, with no
     attributes: there is no result to build them from. *)
  Alcotest.(check bool) "raising span has no attrs" true
    (Json.member "attrs" (find_record "boom" records) = None)

let test_explicit_parent () =
  let records =
    with_capture (fun () ->
        Trace.span "batch" (fun () ->
            let batch = Trace.current_span () in
            (* Simulates the engine pattern: a worker-domain span with no
               DLS ancestry explicitly parented to the batch span. *)
            let d =
              Domain.spawn (fun () ->
                  Trace.span "worker" ~parent:batch (fun () -> ()))
            in
            Domain.join d))
  in
  let batch = find_record "batch" records in
  let worker = find_record "worker" records in
  Alcotest.(check (float 0.))
    "cross-domain parent" (num "id" batch) (num "parent" worker)

let test_disabled_fast_path_no_alloc () =
  Trace.uninstall ();
  let body = Sys.opaque_identity (fun () -> 0) in
  (* Warm up (first call may trigger lazy init elsewhere). *)
  ignore (Trace.span "warm" body);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Trace.span "hot" body)
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.))
    "no minor allocation across 1000 disabled spans" 0. allocated

let test_disabled_returns_value () =
  Trace.uninstall ();
  Alcotest.(check int) "disabled span is transparent" 5
    (Trace.span "x" (fun () -> 5))

(* A sink whose write raises stops tracing at its first failure: the
   spans open around the failing record still return their bodies'
   values, no exception escapes, and the sink sees no later write. A
   close that raises does not escape [uninstall] either. *)
let test_failing_sink_stops () =
  let writes = ref 0 and closes = ref 0 in
  Trace.install_custom
    ~write:(fun _ ->
      incr writes;
      raise (Sys_error "No space left on device"))
    ~close:(fun () ->
      incr closes;
      raise (Sys_error "close failed"));
  let v =
    Trace.span "outer" (fun () ->
        let inner = Trace.span "inner" ~attrs:(fun n -> [ ("n", Trace.Int n) ]) (fun () -> 6) in
        Trace.instant "mark";
        inner + 1)
  in
  ignore (Trace.span "later" (fun () -> ()));
  Trace.uninstall ();
  Alcotest.(check int) "span returns its body's value" 7 v;
  Alcotest.(check int) "one write, the failed one" 1 !writes;
  Alcotest.(check int) "closed once, after the failed write" 1 !closes;
  (* the next sink works *)
  let records = with_capture (fun () -> Trace.span "again" (fun () -> ())) in
  ignore (find_record "again" records)

(* [Trace.init]: an explicit path wins over $BHIVE_TRACE, and a path
   that cannot be opened is an [Error] naming it, with nothing
   installed. *)
let test_init_paths () =
  let bad = "/nonexistent-dir/t.jsonl" in
  let check_refused what r =
    Alcotest.(check (result unit string))
      what
      (Error ("cannot open trace file " ^ bad ^ ": No such file or directory"))
      r
  in
  let saved = Sys.getenv_opt "BHIVE_TRACE" in
  Fun.protect
    ~finally:(fun () ->
      Trace.uninstall ();
      Unix.putenv "BHIVE_TRACE" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "BHIVE_TRACE" "";
      Alcotest.(check bool) "no path, no variable" true (Trace.init () = Ok ());
      check_refused "--trace" (Trace.init ~path:bad ());
      Unix.putenv "BHIVE_TRACE" bad;
      check_refused "BHIVE_TRACE" (Trace.init ());
      (* nothing was installed: a capture sink sees only its own span *)
      let records = with_capture (fun () -> Trace.span "alone" (fun () -> ())) in
      Alcotest.(check int) "nothing installed" 1 (List.length records);
      let file = Filename.temp_file "bhive-trace" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Alcotest.(check bool) "--trace overrides BHIVE_TRACE" true
            (Trace.init ~path:file () = Ok ());
          Trace.span "to file" (fun () -> ());
          Trace.uninstall ();
          let lines = In_channel.with_open_text file In_channel.input_all in
          Alcotest.(check string) "the span reached the file" "to file"
            (str "name" (Json.parse_exn (String.trim lines)))))

(* The measure path's spans under a live sink: one 2-worker batch on
   hsw of an accepted block, one the misalignment filter rejects, one
   whose mapping fails, and a misfit point (nine strided loads under
   Fresh_pages fill one L1D set past its ways), whose warm-up is a
   second simulation. The first two have two points that fit L1, and
   the small one is read off the large one's timed run: one simulation
   under the large point, none under the small one. *)
let test_measure_path_spans () =
  let default = Harness.Environment.default in
  let job ?(env = default) text =
    { Engine.env; uarch = Uarch.All.haswell; block = X86.Parser.block_exn text }
  in
  let misfit_env =
    { default with mapping = Fresh_pages; unroll = Harness.Environment.Naive 9 }
  in
  let jobs =
    [
      ("accepted", job "add $1, %rax");
      ("misaligned", job "movups 60(%rbx), %xmm0");
      ("unmappable", job "mov (%rbx), %rax\nmov (%rax), %rcx");
      ("misfit", job ~env:misfit_env "movq (%rbx), %rax\naddq $4096, %rbx");
    ]
  in
  let run () =
    (Engine.run_batch (Engine.create ~jobs:2 ~faults:Faultsim.none ()) (List.map snd jobs))
      .outcomes
  in
  let untraced = run () in
  let traced = ref [||] in
  let records = with_capture (fun () -> traced := run ()) in
  Alcotest.(check bool) "outcomes equal the untraced batch's" true (untraced = !traced);
  let by_id = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace by_id (num "id" r) r) records;
  let parent r = Hashtbl.find_opt by_id (num "parent" r) in
  let named name = List.filter (fun r -> str "name" r = name) records in
  let children r name =
    List.filter (fun c -> str "name" c = name && num "parent" c = num "id" r) records
  in
  let keys r =
    match Json.member "attrs" r with
    | Some (Json.Object kvs) -> List.map fst kvs
    | _ -> []
  in
  let check_keys what r expected =
    Alcotest.(check (list string)) (what ^ " attribute keys") expected (keys r)
  in
  let one what = function
    | [ r ] -> r
    | rs -> Alcotest.failf "%s: %d records, expected 1" what (List.length rs)
  in
  let batch = one "engine.run_batch" (named "engine.run_batch") in
  check_keys "engine.run_batch" batch
    [ "submitted"; "executed"; "cache_hits"; "workers"; "retries"; "quarantined" ];
  let executes = named "engine.execute" in
  Alcotest.(check int) "one engine.execute per job" (List.length jobs) (List.length executes);
  (* every span and instant sits where the measure path puts it *)
  List.iter
    (fun (name, expected_parent) ->
      List.iter
        (fun r ->
          Alcotest.(check string)
            (name ^ "'s parent")
            expected_parent
            (match parent r with Some p -> str "name" p | None -> "none"))
        (named name))
    [
      ("engine.execute", "engine.run_batch");
      ("profiler.profile", "engine.execute");
      ("profiler.filter", "engine.execute");
      ("profiler.measure", "profiler.profile");
      ("profiler.mapping", "profiler.measure");
      ("pipeline.simulate", "profiler.measure");
    ];
  List.iter
    (fun (label, (j : Engine.job)) ->
      let fp = Engine.fingerprint j in
      let execute =
        one (label ^ ": engine.execute")
          (List.filter (fun r -> str "fingerprint" (field "attrs" r) = fp) executes)
      in
      check_keys (label ^ ": engine.execute") execute
        [ "worker"; "attempt"; "queue_wait_us"; "fingerprint" ];
      let profile = one (label ^ ": profiler.profile") (children execute "profiler.profile") in
      (* an accepted profile passes the filter without an instant *)
      let reason =
        match children execute "profiler.filter" with
        | [] -> "accepted"
        | filters -> str "reason" (field "attrs" (one (label ^ ": filter") filters))
      in
      let measures = children profile "profiler.measure" in
      let mapping m = one (label ^ ": profiler.mapping") (children m "profiler.mapping") in
      let simulates m = List.length (children m "pipeline.simulate") in
      let ok_measure m =
        check_keys (label ^ ": profiler.measure") m
          [ "unroll"; "accepted_cycles"; "best_cycles"; "faults"; "distinct_frames" ];
        check_keys (label ^ ": profiler.mapping") (mapping m)
          [ "unroll"; "ok"; "attempts"; "faults"; "distinct_frames" ];
        List.iter
          (fun s ->
            check_keys (label ^ ": pipeline.simulate") s
              [
                "uarch"; "cycles"; "instructions"; "uops"; "port_cycles";
                "frontend_stall_cycles"; "rob_stall_cycles"; "port_contention_cycles";
              ])
          (children m "pipeline.simulate")
      in
      let ok_profile () =
        check_keys (label ^ ": profiler.profile") profile
          [ "uarch"; "block_insts"; "accepted"; "throughput"; "unroll_large"; "unroll_small" ];
        List.iter ok_measure measures
      in
      match label with
      | "unmappable" ->
        check_keys (label ^ ": profiler.profile") profile [ "uarch"; "block_insts"; "failure" ];
        let m = one (label ^ ": profiler.measure") measures in
        check_keys (label ^ ": profiler.measure") m [ "unroll"; "mapping_error" ];
        check_keys (label ^ ": profiler.mapping") (mapping m) [ "unroll"; "ok"; "error" ];
        Alcotest.(check int) (label ^ ": no simulation") 0 (simulates m);
        Alcotest.(check bool)
          (label ^ ": filter reason " ^ reason)
          true
          (String.starts_with ~prefix:"mapping: " reason)
      | "misfit" ->
        ok_profile ();
        let m = one (label ^ ": profiler.measure") measures in
        Alcotest.(check int) (label ^ ": warm-up and timed simulations") 2 (simulates m);
        Alcotest.(check string) (label ^ ": filter reason") "never_clean" reason
      | _ ->
        ok_profile ();
        Alcotest.(check int) (label ^ ": two measure points") 2 (List.length measures);
        let large = num "unroll_large" (field "attrs" profile) in
        List.iter
          (fun m ->
            if num "unroll" (field "attrs" m) = large then
              Alcotest.(check int) (label ^ ": one simulation, large point") 1 (simulates m)
            else Alcotest.(check int) (label ^ ": no simulation, small point") 0 (simulates m))
          measures;
        Alcotest.(check string) (label ^ ": filter reason") label reason)
    jobs

(* A point is read off the large point's run only when that is exact.
   The fallback block, reduced from a table-lookup block of the corpus
   at scale 300, seed 3, maps with 6 faults at unroll 100 and 3 at
   unroll 50: its byte loads read what the stores of earlier mapping
   attempts left in the shared frame, so the final runs look up other
   table entries and the small log is not the large log's prefix. Its
   small point takes the fallback, one simulation under its
   "profiler.measure"; the gzip block's is read off the prefix, none.
   Either way each point equals that point traced and measured on its
   own, in faults, frames, cycles and every counter; its noise is drawn
   from the same seed, cycles and cleanliness, so the profile is the
   same too. *)
let test_prefix_fallback () =
  let env = Harness.Environment.default and d = Uarch.All.haswell in
  let fallback =
    X86.Parser.block_exn
      "movzbl 0x2(%rsi), %r11d\n\
       xorq 0x40828(, %r11, 8), %r10\n\
       addq $64, %rsi\n\
       pmaddwd %xmm8, %xmm11\n\
       movaps %xmm11, -0xc0(%rcx)\n\
       addq $128, %rcx"
  in
  List.iter
    (fun (name, block, small_sims) ->
      let f = Harness.Unroll.choose env.unroll block in
      let profile = ref None in
      let records = with_capture (fun () -> profile := Some (Harness.Profiler.profile env d block)) in
      let p =
        match !profile with
        | Some (Ok p) -> p
        | _ -> Alcotest.failf "%s: the profile failed" name
      in
      let on_its_own (pt : Harness.Profiler.point) =
        match
          Harness.Mapping_memo.run ~log:(Xsem.Step_log.create ~steps:1) env block
            ~unroll:pt.unroll
        with
        | Error _ -> Alcotest.failf "%s: unroll %d does not map" name pt.unroll
        | Ok m ->
          let machine = Pipeline.Machine.create d in
          let r =
            Pipeline.Machine.measure machine ~fits_l1:m.fits_l1
              (Pipeline.Machine.trace machine m.steps)
          in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s, unroll %d: faults and frames" name pt.unroll)
            (m.faults, m.distinct_frames) (pt.faults, pt.distinct_frames);
          Alcotest.(check string)
            (Printf.sprintf "%s, unroll %d: counters" name pt.unroll)
            (Format.asprintf "%a" Pipeline.Counters.pp r.counters)
            (Format.asprintf "%a" Pipeline.Counters.pp pt.counters)
      in
      on_its_own p.large;
      (match p.small with
      | Some small -> on_its_own small
      | None -> Alcotest.failf "%s: no small point" name);
      let measure unroll =
        match
          List.filter
            (fun r -> str "name" r = "profiler.measure" && num "unroll" (field "attrs" r) = float_of_int unroll)
            records
        with
        | [ m ] -> m
        | ms -> Alcotest.failf "%s: %d measure spans at unroll %d" name (List.length ms) unroll
      in
      let simulates m =
        List.length
          (List.filter
             (fun r -> str "name" r = "pipeline.simulate" && num "parent" r = num "id" m)
             records)
      in
      Alcotest.(check (pair int int))
        (name ^ ": simulations under the large and the small point")
        (1, small_sims)
        (simulates (measure f.large), simulates (measure f.small)))
    [ ("fallback block", fallback, 1); ("gzip crc", Corpus.Paper_blocks.gzip_crc, 0) ]

(* --- Metrics --- *)

let test_counter_totals () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter total" 42 (Metrics.value c);
  let again = Metrics.counter "test.counter" in
  Metrics.incr again;
  Alcotest.(check int) "same name, same cell" 43 (Metrics.value c)

let test_histogram_buckets () =
  Metrics.reset ();
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 0.001; 0.001; 0.002; 1.0; 100.0 ];
  Alcotest.(check int) "count" 5 (Metrics.count h);
  Alcotest.(check (float 1e-9)) "sum" 101.004 (Metrics.sum h);
  (* Quantiles are bucket upper bounds: log2 buckets so within 2x. *)
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool) "p50 brackets the median" true
    (p50 >= 0.002 && p50 <= 0.004);
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool) "p99 brackets the max" true
    (p99 >= 100.0 && p99 <= 200.0);
  (* Distinct magnitudes land in distinct buckets. *)
  Alcotest.(check int) "four magnitudes, four buckets" 4
    (List.length (Metrics.bucket_counts h))

let test_snapshot_json () =
  Metrics.reset ();
  let c = Metrics.counter "snap.counter" in
  Metrics.add c 7;
  let h = Metrics.histogram "snap.hist" in
  Metrics.observe h 0.5;
  let snap = Metrics.snapshot () in
  Alcotest.(check (float 0.))
    "counter in snapshot" 7.
    (match Json.path [ "counters"; "snap.counter" ] snap with
    | Some (Json.Number n) -> n
    | _ -> Alcotest.fail "snap.counter missing");
  Alcotest.(check (float 0.))
    "histogram count in snapshot" 1.
    (match Json.path [ "histograms"; "snap.hist"; "count" ] snap with
    | Some (Json.Number n) -> n
    | _ -> Alcotest.fail "snap.hist missing")

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    Json.Object
      [
        ("s", Json.String "a\"b\\c\n\t");
        ("n", Json.Number 1.5);
        ("i", Json.Number 12345.);
        ("b", Json.Bool false);
        ("z", Json.Null);
        ("l", Json.List [ Json.Number 1.; Json.String "x" ]);
      ]
  in
  let reparsed = Json.parse_exn (Json.to_string v) in
  Alcotest.(check bool) "pretty round-trip" true (reparsed = v);
  let reparsed_compact = Json.parse_exn (Json.to_string ~compact:true v) in
  Alcotest.(check bool) "compact round-trip" true (reparsed_compact = v)

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "parsed %S as %s" s (Json.to_string v)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "nul";
  (* RFC 8259 number grammar: float_of_string accepts all of these *)
  List.iter bad [ "+1"; ".5"; "1."; "01"; "-.5"; "1.e3" ];
  List.iter bad [ "[+1]"; "{\"a\":01}"; "-"; "1e"; "0x10"; "1_000" ]

(* Escape-sequence edge cases: escaped quotes and backslashes inside
   strings, strict \uXXXX handling (including surrogate pairs and the
   errors around them), and unknown escapes. *)
let test_json_string_escapes () =
  let parses input expected =
    match Json.parse input with
    | Ok (Json.String s) -> Alcotest.(check string) input expected s
    | Ok v -> Alcotest.failf "%s parsed as non-string %s" input (Json.to_string v)
    | Error msg -> Alcotest.failf "%s failed to parse: %s" input msg
  in
  parses {|"a\"b"|} "a\"b";
  parses {|"a\\b"|} "a\\b";
  parses {|"\\\""|} "\\\"";
  parses {|"a\/b"|} "a/b";
  parses {|"\b\f\n\r\t"|} "\b\012\n\r\t";
  (* \uXXXX: ASCII, 2-byte and 3-byte UTF-8, hex case-insensitive *)
  parses "\"\\u0041\"" "A";
  parses "\"\\u00e9\"" "\xc3\xa9";
  parses "\"\\u00E9\"" "\xc3\xa9";
  parses "\"\\u20ac\"" "\xe2\x82\xac";
  parses "\"\\u0000\"" "\x00";
  (* surrogate pair: U+1F600 as 😀 -> 4-byte UTF-8 *)
  parses "\"\\ud83d\\ude00\"" "\xf0\x9f\x98\x80";
  let bad input =
    match Json.parse input with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "accepted %s as %s" input (Json.to_string v)
  in
  bad {|"\u12"|};
  (* int_of_string "0x..." laxness must not leak: underscores are not hex *)
  bad {|"\u00_1"|};
  bad {|"\u 041"|};
  bad {|"\ug000"|};
  (* unpaired surrogates *)
  bad {|"\ud83d"|};
  bad {|"\ud83dx"|};
  bad {|"\ud83dA"|};
  bad {|"\ude00"|};
  (* unknown escape *)
  bad {|"\x41"|};
  (* escaped quote does not close the string *)
  bad {|"a\"|}

let test_json_escape_roundtrip () =
  (* every byte value survives to_string -> parse, escapes included *)
  let every_byte = String.init 256 Char.chr in
  let v = Json.Object [ ("bytes", Json.String every_byte) ] in
  (match Json.parse (Json.to_string ~compact:true v) with
  | Ok v' -> Alcotest.(check bool) "all 256 byte values round-trip" true (v = v')
  | Error msg -> Alcotest.failf "serialized bytes failed to parse: %s" msg);
  let tricky = "ends with backslash \\" in
  match Json.parse (Json.to_string (Json.String tricky)) with
  | Ok (Json.String s) -> Alcotest.(check string) "trailing backslash" tricky s
  | _ -> Alcotest.fail "trailing-backslash string did not round-trip"

let test_json_deep_nesting () =
  let nested depth =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "1"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  (match Json.parse (nested 100) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "100-deep array rejected: %s" msg);
  (match Json.parse (nested 5000) with
  | Ok _ -> Alcotest.fail "5000-deep array should exceed the depth limit"
  | Error msg ->
    let contains needle =
      let n = String.length needle and h = String.length msg in
      let rec at i = i + n <= h && (String.sub msg i n = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "error names the depth limit" true
      (contains "deep"));
  (* objects count against the same limit *)
  let nested_obj depth =
    String.concat "" (List.init depth (fun _ -> {|{"a":|}))
    ^ "1"
    ^ String.make depth '}'
  in
  match Json.parse (nested_obj 5000) with
  | Ok _ -> Alcotest.fail "5000-deep object should exceed the depth limit"
  | Error _ -> ()

(* Property: any JSON value built from exactly-representable numbers
   serializes and reparses to itself, pretty or compact. *)
let json_gen =
  let open QCheck.Gen in
  (* halves are exact in binary floating point, so formatting is stable *)
  let number = map (fun n -> Json.Number (float_of_int n /. 2.0)) (int_range (-10000) 10000) in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let scalar =
    oneof
      [
        number;
        map (fun s -> Json.String s) (string_size (int_range 0 12));
        map (fun b -> Json.Bool b) bool;
        return Json.Null;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map (fun l -> Json.List l)
                   (list_size (int_range 0 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Json.Object kvs)
                   (list_size (int_range 0 4)
                      (pair key (self (n / 2)))) );
             ])

let json_arbitrary =
  QCheck.make ~print:(fun j -> Json.to_string j) json_gen

let json_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json round-trip property" ~count:500
       json_arbitrary (fun v ->
         Json.parse_exn (Json.to_string v) = v
         && Json.parse_exn (Json.to_string ~compact:true v) = v))

(* --- Bench_diff --- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let summary ?(executed = 1000.) ?(hit_rate = 0.5) ?(wall = 10.)
    ?(sections = [ ("corpus", 100., 0.2, 1.0) ]) () =
  let section (name, ex, hr, w) =
    Json.Object
      [
        ("section", Json.String name);
        ("executed", Json.Number ex);
        ("cache_hit_rate", Json.Number hr);
        ("wall_seconds", Json.Number w);
      ]
  in
  Json.Object
    [
      ("submitted", Json.Number 2000.);
      ("executed", Json.Number executed);
      ("cache_hit_rate", Json.Number hit_rate);
      ("engine_wall_seconds", Json.Number wall);
      ("sections", Json.List (List.map section sections));
    ]

let gate text =
  match Bench_diff.parse_gate text with
  | Ok g -> g
  | Error msg -> Alcotest.fail msg

let diff ?identical ?(gates = []) baseline current =
  Bench_diff.compare_summaries ?identical ~gates:(List.map gate gates)
    ~baseline ~current ()

let check_verdict what expected report =
  let show = function
    | Bench_diff.Pass -> "pass"
    | Bench_diff.Warn -> "warn"
    | Bench_diff.Fail -> "fail"
    | Bench_diff.Mismatch -> "mismatch"
  in
  Alcotest.(check string) what (show expected) (show report.Bench_diff.verdict)

let test_diff_identical () =
  let s = summary () in
  let report = diff s s in
  check_verdict "identical summaries pass" Bench_diff.Pass report;
  Alcotest.(check int) "exit code 0" 0 (Bench_diff.exit_code report)

let test_diff_executed_regression () =
  let report = diff (summary ()) (summary ~executed:1500. ()) in
  check_verdict "executed +50% fails" Bench_diff.Fail report;
  Alcotest.(check int) "exit code 1" 1 (Bench_diff.exit_code report)

let test_diff_executed_at_limit_passes () =
  (* limit = baseline * 1.10 + 4 = 1104; exactly at the limit passes
     (strict inequality), one past it fails. *)
  let report = diff (summary ()) (summary ~executed:1104. ()) in
  check_verdict "at-limit passes" Bench_diff.Pass report;
  let report = diff (summary ()) (summary ~executed:1105. ()) in
  check_verdict "one past limit fails" Bench_diff.Fail report

let test_diff_hit_rate_regression () =
  let report = diff (summary ()) (summary ~hit_rate:0.4 ()) in
  check_verdict "hit-rate drop fails" Bench_diff.Fail report;
  let report = diff (summary ()) (summary ~hit_rate:0.49 ()) in
  check_verdict "within threshold passes" Bench_diff.Pass report

let test_diff_improvement_passes () =
  let report = diff (summary ()) (summary ~executed:500. ~hit_rate:0.9 ()) in
  check_verdict "improvements pass" Bench_diff.Pass report

let test_diff_wall_warns_by_default () =
  let report = diff (summary ()) (summary ~wall:100. ()) in
  check_verdict "wall regression warns" Bench_diff.Warn report;
  Alcotest.(check int) "warn exits 0" 0 (Bench_diff.exit_code report);
  let gates =
    [
      "engine_wall_seconds <= 1.5x + 1"; "sections.*.wall_seconds <= 1.5x + 1";
    ]
  in
  let report = diff ~gates (summary ()) (summary ~wall:100. ()) in
  check_verdict "wall regression fails with explicit gates" Bench_diff.Fail
    report

let test_diff_missing_section_fails () =
  let report = diff (summary ()) (summary ~sections:[] ()) in
  check_verdict "missing section fails" Bench_diff.Fail report

let test_diff_new_section_passes () =
  let sections = [ ("corpus", 100., 0.2, 1.0); ("extra", 5., 0.0, 0.1) ] in
  let report = diff (summary ()) (summary ~sections ()) in
  check_verdict "new section is informational" Bench_diff.Pass report

let test_diff_section_regression_fails () =
  let sections = [ ("corpus", 200., 0.2, 1.0) ] in
  let report = diff (summary ()) (summary ~sections ()) in
  check_verdict "per-section executed regression fails" Bench_diff.Fail report

let test_diff_schema_check () =
  let versioned v = Json.Object [ ("schema_version", Json.Number v) ] in
  Alcotest.(check bool) "current schema accepted" true
    (Result.is_ok (Bench_diff.check_schema (versioned 5.0)));
  let too_old what doc =
    match Bench_diff.check_schema doc with
    | Ok () -> Alcotest.fail (what ^ ": accepted a too-old schema")
    | Error msg ->
      Alcotest.(check bool) (what ^ ": message says too old") true
        (contains ~needle:"too old" msg)
  in
  (* a v1 summary has no schema_version field at all *)
  too_old "v1 (field absent)" (summary ());
  too_old "explicit 1.0" (versioned 1.0);
  too_old "v2 (pre-manifest)" (versioned 2.0);
  too_old "v3 (pre-manifest)" (versioned 3.0);
  too_old "v4 (pre-manifest)" (versioned 4.0)

let with_manifest ~id ~experiment s =
  match s with
  | Json.Object fields ->
    Json.Object
      (fields
      @ [
          ( "manifest",
            Json.Object
              [
                ("id", Json.String id); ("experiment", Json.String experiment);
              ] );
        ])
  | other -> other

let test_diff_experiment_mismatch () =
  (* different experiment ids: not comparable, distinct verdict *)
  let a = with_manifest ~id:"aaaa" ~experiment:"e1-deadbeef0000" (summary ()) in
  let b = with_manifest ~id:"bbbb" ~experiment:"e2-cafebabe0000" (summary ()) in
  let report = diff a b in
  check_verdict "different experiments mismatch" Bench_diff.Mismatch report;
  Alcotest.(check int) "mismatch exits 3" 3 (Bench_diff.exit_code report)

let test_diff_manifest_id_informational () =
  (* same experiment, different execution config: comparable, Info only *)
  let a = with_manifest ~id:"aaaa" ~experiment:"e1" (summary ()) in
  let b = with_manifest ~id:"bbbb" ~experiment:"e1" (summary ()) in
  let report = diff a b in
  check_verdict "same experiment still passes" Bench_diff.Pass report

let with_faults ?(lost = 0.) ?(quarantined = 0.) s =
  match s with
  | Json.Object fields ->
    Json.Object
      (fields
      @ [
          ( "faults",
            Json.Object
              [
                ("lost", Json.Number lost);
                ("quarantined_jobs", Json.Number quarantined);
              ] );
        ])
  | other -> other

let test_diff_lost_jobs_fail () =
  let report = diff (summary ()) (with_faults ~lost:1. (summary ())) in
  check_verdict "a lost job fails regardless of baseline" Bench_diff.Fail
    report;
  let report = diff (summary ()) (with_faults (summary ())) in
  check_verdict "zero lost passes" Bench_diff.Pass report

let test_diff_quarantine_regression () =
  let report = diff (summary ()) (with_faults ~quarantined:2. (summary ())) in
  check_verdict "new quarantines vs clean baseline fail" Bench_diff.Fail
    report;
  let report =
    diff
      (with_faults ~quarantined:2. (summary ()))
      (with_faults ~quarantined:2. (summary ()))
  in
  check_verdict "unchanged quarantine count passes" Bench_diff.Pass report;
  let report =
    diff
      (with_faults ~quarantined:2. (summary ()))
      (with_faults ~quarantined:1. (summary ()))
  in
  check_verdict "fewer quarantines pass" Bench_diff.Pass report

(* --- schema v4: store tier and the warm-cache gate --- *)

let with_store ?(hits = 95.) ?(misses = 5.) ?(hit_rate = 0.95) s =
  match s with
  | Json.Object fields ->
    Json.Object
      (fields
      @ [
          ( "store",
            Json.Object
              [
                ("enabled", Json.Bool true);
                ("path", Json.String "/tmp/store");
                ("hits", Json.Number hits);
                ("misses", Json.Number misses);
                ("invalidated", Json.Number 0.);
                ("writes", Json.Number misses);
                ("hit_rate", Json.Number hit_rate);
              ] );
        ])
  | other -> other

let test_diff_store_hit_rate () =
  (* a regressed store hit rate fails like a regressed cache-hit rate *)
  let report =
    diff (with_store (summary ())) (with_store ~hit_rate:0.5 (summary ()))
  in
  check_verdict "store hit-rate drop fails" Bench_diff.Fail report;
  let report = diff (with_store (summary ())) (with_store (summary ())) in
  check_verdict "unchanged store hit rate passes" Bench_diff.Pass report;
  (* a cold baseline (rate 0) imposes nothing on the current run *)
  let report =
    diff (with_store ~hits:0. ~hit_rate:0. (summary ())) (summary ())
  in
  check_verdict "cold baseline imposes no store check" Bench_diff.Pass report

let test_diff_min_store_hit_rate_floor () =
  let gate = diff ~gates:[ "store.hit_rate >= 0.95" ] in
  let report =
    gate (with_store (summary ())) (with_store ~hit_rate:0.90 (summary ()))
  in
  check_verdict "below the floor fails" Bench_diff.Fail report;
  let report =
    gate (with_store (summary ())) (with_store ~hit_rate:0.99 (summary ()))
  in
  check_verdict "above the floor passes" Bench_diff.Pass report;
  (* a summary with no store object cannot satisfy the floor *)
  let report = gate (summary ()) (summary ()) in
  check_verdict "no store object fails the floor" Bench_diff.Fail report

(* --- schema v6: simulator throughput and the perf gate --- *)

let with_perf ?(blocks_per_sec = 1000.) s =
  match s with
  | Json.Object fields ->
    Json.Object
      (fields
      @ [
          ( "perf",
            Json.Object
              [
                ("blocks", Json.Number 4000.);
                ("sim_seconds", Json.Number (4000. /. blocks_per_sec));
                ("blocks_per_sec", Json.Number blocks_per_sec);
              ] );
        ])
  | other -> other

let test_diff_min_speedup () =
  let gate =
    diff
      ~gates:[ "perf.blocks_per_sec >= 0.8x"; "warn perf.blocks_per_sec >= 1x" ]
  in
  let report =
    gate (with_perf (summary ())) (with_perf ~blocks_per_sec:700. (summary ()))
  in
  check_verdict "below the floor fails" Bench_diff.Fail report;
  let report =
    gate (with_perf (summary ())) (with_perf ~blocks_per_sec:900. (summary ()))
  in
  check_verdict "between floor and parity warns" Bench_diff.Warn report;
  let report =
    gate (with_perf (summary ())) (with_perf ~blocks_per_sec:1200. (summary ()))
  in
  check_verdict "above parity passes" Bench_diff.Pass report;
  let report =
    gate (with_perf (summary ())) (with_perf ~blocks_per_sec:1000. (summary ()))
  in
  check_verdict "exactly at parity passes" Bench_diff.Pass report;
  (* a summary predating schema v6 has no perf object: the gate cannot
     be satisfied, on either side *)
  let report = gate (with_perf (summary ())) (summary ()) in
  check_verdict "current without perf fails" Bench_diff.Fail report;
  let report = gate (summary ()) (with_perf (summary ())) in
  check_verdict "baseline without perf fails" Bench_diff.Fail report;
  (* without a perf gate the perf object imposes nothing *)
  let report =
    diff (with_perf (summary ())) (with_perf ~blocks_per_sec:1. (summary ()))
  in
  check_verdict "no floor requested: perf not gated" Bench_diff.Pass report

let test_diff_min_speedup_zero_baseline () =
  (* a baseline whose perf object exists but records zero blocks per
     second (a zero-block run: empty corpus or fully warm store) can
     anchor no ratio — distinct from the missing-field case, and a
     failure either way rather than a divide-by-zero pass *)
  let gate =
    diff
      ~gates:[ "perf.blocks_per_sec >= 0.8x"; "warn perf.blocks_per_sec >= 1x" ]
  in
  let report =
    gate
      (with_perf ~blocks_per_sec:0. (summary ()))
      (with_perf ~blocks_per_sec:900. (summary ()))
  in
  check_verdict "zero-block baseline fails the speedup gate" Bench_diff.Fail
    report;
  Alcotest.(check bool) "finding names the zero baseline" true
    (List.exists
       (fun (f : Bench_diff.finding) ->
         f.metric = "perf.blocks_per_sec" && f.severity = Bench_diff.Regression)
       report.Bench_diff.findings);
  (* zero on both sides is still a failure, not 0/0 = pass *)
  let report =
    gate
      (with_perf ~blocks_per_sec:0. (summary ()))
      (with_perf ~blocks_per_sec:0. (summary ()))
  in
  check_verdict "zero vs zero fails" Bench_diff.Fail report

(* --- schema v7: the serving object and its gates --- *)

let with_serving ?(lost = 0.) ?(shed_after_accept = 0.)
    ?(coalesce_ratio = 2.5) ?(p99_ms = 40.) ?(rps = 5000.) s =
  match s with
  | Json.Object fields ->
    Json.Object
      (fields
      @ [
          ( "serving",
            Json.Object
              [
                ("requests", Json.Number 1000.);
                ("ok", Json.Number (1000. -. lost));
                ("lost", Json.Number lost);
                ("shed_after_accept", Json.Number shed_after_accept);
                ("coalesce_ratio", Json.Number coalesce_ratio);
                ("p99_ms", Json.Number p99_ms);
                ("requests_per_sec", Json.Number rps);
              ] );
        ])
  | other -> other

let test_diff_serving_invariants () =
  (* lost and shed_after_accept are absolute invariants: they gate
     whenever the current summary carries a serving object, no gate
     needed *)
  let report = diff (with_serving (summary ())) (with_serving (summary ())) in
  check_verdict "clean serving run passes" Bench_diff.Pass report;
  let report =
    diff (with_serving (summary ())) (with_serving ~lost:1. (summary ()))
  in
  check_verdict "a lost request fails" Bench_diff.Fail report;
  let report =
    diff
      (with_serving (summary ()))
      (with_serving ~shed_after_accept:3. (summary ()))
  in
  check_verdict "shed-after-accept fails" Bench_diff.Fail report;
  (* a summary without a serving object (a bench run) is untouched *)
  let report = diff (summary ()) (summary ()) in
  check_verdict "no serving object: nothing gated" Bench_diff.Pass report

let test_diff_min_coalesce () =
  let gate = diff ~gates:[ "serving.coalesce_ratio >= 1.05" ] in
  let report =
    gate
      (with_serving (summary ()))
      (with_serving ~coalesce_ratio:1.0 (summary ()))
  in
  check_verdict "ratio below the floor fails" Bench_diff.Fail report;
  let report =
    gate
      (with_serving (summary ()))
      (with_serving ~coalesce_ratio:3.9 (summary ()))
  in
  check_verdict "ratio above the floor passes" Bench_diff.Pass report;
  (* floor requested against a summary with no serving object at all:
     the gate cannot be evaluated, which is a failure, not a pass *)
  let report = gate (with_serving (summary ())) (summary ()) in
  check_verdict "current without serving fails the coalesce gate"
    Bench_diff.Fail report;
  (* without the gate a weak ratio imposes nothing *)
  let report =
    diff
      (with_serving (summary ()))
      (with_serving ~coalesce_ratio:1.0 (summary ()))
  in
  check_verdict "no floor requested: ratio not gated" Bench_diff.Pass report

let test_diff_max_p99 () =
  let gate = diff ~gates:[ "serving.p99_ms <= 100" ] in
  let report =
    gate (with_serving (summary ())) (with_serving ~p99_ms:250. (summary ()))
  in
  check_verdict "p99 above the ceiling fails" Bench_diff.Fail report;
  let report =
    gate (with_serving (summary ())) (with_serving ~p99_ms:99. (summary ()))
  in
  check_verdict "p99 below the ceiling passes" Bench_diff.Pass report;
  let report =
    gate (with_serving (summary ())) (with_serving ~p99_ms:100. (summary ()))
  in
  check_verdict "p99 exactly at the ceiling passes" Bench_diff.Pass report;
  let report = gate (with_serving (summary ())) (summary ()) in
  check_verdict "current without serving fails the p99 gate" Bench_diff.Fail
    report

let test_diff_min_rps () =
  (* schema v8: serving.requests_per_sec gated as a ratio against the
     baseline, like perf.blocks_per_sec *)
  let gate = diff ~gates:[ "serving.requests_per_sec >= 0.8x" ] in
  let report =
    gate
      (with_serving ~rps:5000. (summary ()))
      (with_serving ~rps:3000. (summary ()))
  in
  check_verdict "throughput below the floor fails" Bench_diff.Fail report;
  let report =
    gate
      (with_serving ~rps:5000. (summary ()))
      (with_serving ~rps:4800. (summary ()))
  in
  check_verdict "throughput above the floor passes" Bench_diff.Pass report;
  (* a baseline that cannot anchor the ratio fails cleanly *)
  let report =
    gate
      (with_serving ~rps:0. (summary ()))
      (with_serving ~rps:5000. (summary ()))
  in
  check_verdict "zero-rps baseline fails" Bench_diff.Fail report;
  let report = gate (summary ()) (with_serving ~rps:5000. (summary ())) in
  check_verdict "baseline without serving fails the rps gate" Bench_diff.Fail
    report;
  let report = gate (with_serving ~rps:5000. (summary ())) (summary ()) in
  check_verdict "current without serving fails the rps gate" Bench_diff.Fail
    report;
  (* without the gate a throughput drop imposes nothing *)
  let report =
    diff
      (with_serving ~rps:5000. (summary ()))
      (with_serving ~rps:100. (summary ()))
  in
  check_verdict "no floor requested: rps not gated" Bench_diff.Pass report

let test_diff_serving_volatile_for_identity () =
  (* the serving object is volatile for --identical comparisons: two
     load runs never share latencies, and a load summary compared to
     itself with different serving numbers must still be identical *)
  let a = with_serving ~p99_ms:10. (summary ()) in
  let b = with_serving ~p99_ms:99. (summary ()) in
  Alcotest.(check bool) "serving stripped" true
    (Json.member "serving" (Bench_diff.strip_volatile a) = None);
  let report = diff ~identical:true a b in
  check_verdict "identity ignores serving deltas" Bench_diff.Pass report

let test_strip_volatile () =
  let s =
    with_perf
      (with_store ~hit_rate:0.95
         (with_faults (summary ~executed:1000. ~wall:10. ())))
  in
  let stripped = Bench_diff.strip_volatile s in
  Alcotest.(check bool) "wall stripped" true
    (Json.member "engine_wall_seconds" stripped = None);
  Alcotest.(check bool) "store stripped" true
    (Json.member "store" stripped = None);
  Alcotest.(check bool) "perf stripped (timings are volatile)" true
    (Json.member "perf" stripped = None);
  Alcotest.(check bool) "executed stripped" true
    (Json.member "executed" stripped = None);
  Alcotest.(check bool) "submitted stripped" true
    (Json.member "submitted" stripped = None);
  (* stripping recurses into sections *)
  match Json.member "sections" stripped with
  | Some (Json.List (sec :: _)) ->
    Alcotest.(check bool) "section wall stripped" true
      (Json.member "wall_seconds" sec = None);
    Alcotest.(check bool) "section name kept" true
      (Json.member "section" sec <> None)
  | _ -> Alcotest.fail "sections missing after strip"

let test_diff_identical_mode () =
  let identical = diff ~identical:true in
  (* volatile-only differences (store traffic) pass identically *)
  let report =
    identical
      (with_store ~hits:0. ~misses:100. ~hit_rate:0. (summary ()))
      (with_store ~hit_rate:0.95 (summary ()))
  in
  check_verdict "volatile-only differences are identical" Bench_diff.Pass
    report;
  (* a non-volatile difference (a section's name) fails and names its
     path *)
  let renamed_section =
    summary ~sections:[ ("corpus-renamed", 100., 0.2, 1.0) ] ()
  in
  let report = identical (summary ()) renamed_section in
  check_verdict "non-volatile difference fails" Bench_diff.Fail report;
  Alcotest.(check bool) "finding names the differing path" true
    (List.exists
       (fun (f : Bench_diff.finding) ->
         String.length f.metric >= 10
         && String.sub f.metric 0 10 = "identical:")
       report.Bench_diff.findings)

let test_diff_schema_v5_accepted () =
  let versioned v = Json.Object [ ("schema_version", Json.Number v) ] in
  Alcotest.(check bool) "v5 (manifest era) accepted" true
    (Result.is_ok (Bench_diff.check_schema (versioned 5.0)))

(* --- the gate language --- *)

let test_gate_parse () =
  let accepted =
    [
      "executed <= 1.1x + 4";
      "warn perf.blocks_per_sec >= 1x";
      "serving.lost == 0";
      "sections.*.wall_seconds<=1.5x+1";
      "  refine.final_error <= 5e-3  ";
      "a.b >= -2.5E+3";
      "executed <= 1x + -4";
    ]
  in
  List.iter
    (fun text ->
      match Bench_diff.parse_gate text with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "refused %S: %s" text msg)
    accepted;
  let refused =
    [
      ("executed 1.1x", "no operator");
      ("executed < 4", "no operator (strict)");
      ("a..b <= 1", "empty path component");
      ("executed. <= 1", "trailing dot");
      ("<= 1", "no path");
      ("executed <= x", "x without a number");
      ("executed <= x + 4", "x without a number, with slack");
      ("executed <= 1.1x + 4 extra", "trailing text after the bound");
      ("executed <= 4 4", "two numbers");
      ("executed <= 1.1x - 4", "minus instead of plus");
      ("executed <= 1.1x +", "plus without a number");
      ("executed <= nan", "nan bound");
      ("executed <= inf", "inf bound");
      ("executed <= -inf", "negative inf bound");
      ("executed <= 1e999", "overflowing bound");
      ("executed <= nanx", "nan ratio");
      ("executed <= 0x10", "hex bound");
      ("executed <= 1_000", "underscore bound");
      ("executed <= +1", "leading plus");
      ("executed <= .5", "bare fraction");
      ("warn", "warn without a gate");
      ("warn <= 1", "warn without a path");
    ]
  in
  List.iter
    (fun (text, why) ->
      match Bench_diff.parse_gate text with
      | Ok _ -> Alcotest.failf "%s: accepted %S" why text
      | Error msg ->
        Alcotest.(check bool) (why ^ ": message names the gate") true
          (contains ~needle:text msg))
    refused

let test_gate_semantics () =
  let cases =
    [
      ("== at the value", "executed == 1000", 1000., 1000., Bench_diff.Pass);
      ("== off the value", "executed == 1000", 1000., 1000.5, Bench_diff.Fail);
      ("Kx + N at bound", "executed <= 1x + 10", 1000., 1010., Bench_diff.Pass);
      ("Kx + N past it", "executed <= 1x + 10", 1000., 1011., Bench_diff.Fail);
      ("warn downgrades", "warn executed <= 1x", 1000., 1001., Bench_diff.Warn);
      ("N ignores baseline", "executed >= 1001", 1000., 1001., Bench_diff.Pass);
      (* a zero baseline anchors no ratio, but + N still bounds it *)
      ("zero baseline, pure Kx", "executed <= 1x", 0., 0., Bench_diff.Fail);
      ("zero baseline, Kx + N", "executed <= 1x + 4", 0., 4., Bench_diff.Pass);
      ("zero baseline, past N", "executed <= 1x + 4", 0., 5., Bench_diff.Fail);
    ]
  in
  List.iter
    (fun (what, gate, base, executed, expected) ->
      check_verdict what expected
        (diff ~gates:[ gate ]
           (summary ~executed:base ())
           (summary ~executed ())))
    cases;
  (* an explicit sections.*.F gate fails on the one section that
     regressed, under that section's name *)
  let sections = [ ("a", 10., 0.5, 1.0); ("b", 10., 0.5, 1.0) ] in
  let regressed = [ ("a", 10., 0.5, 1.0); ("b", 11., 0.5, 1.0) ] in
  let report =
    diff ~gates:[ "sections.*.executed <= 1x" ]
      (summary ~sections ()) (summary ~sections:regressed ())
  in
  check_verdict "one section over its bound fails" Bench_diff.Fail report;
  Alcotest.(check (list string)) "only that section is named"
    [ "sections.b.executed" ]
    (List.filter_map
       (fun (f : Bench_diff.finding) ->
         if f.severity = Bench_diff.Regression then Some f.metric else None)
       report.Bench_diff.findings)

let test_gate_absent_path () =
  (* the same gate on an absent path: explicit fails, default skipped *)
  let report =
    diff ~gates:[ "store.hit_rate >= 0.95x" ] (summary ()) (summary ())
  in
  check_verdict "explicit gate on an absent path fails" Bench_diff.Fail report;
  let report = diff (summary ()) (summary ()) in
  check_verdict "default gate on an absent path is skipped" Bench_diff.Pass
    report;
  Alcotest.(check bool) "no finding for the skipped default" false
    (List.exists
       (fun (f : Bench_diff.finding) -> f.metric = "store.hit_rate")
       report.Bench_diff.findings);
  (* a non-number at the path counts as absent *)
  let text_executed =
    Json.Object [ ("executed", Json.String "1000"); ("sections", Json.List []) ]
  in
  check_verdict "non-number fails an explicit gate" Bench_diff.Fail
    (diff ~gates:[ "executed <= 2000" ] (summary ()) text_executed)

let suite =
  [
    Alcotest.test_case "span nesting and parents" `Quick test_span_nesting;
    Alcotest.test_case "span attrs round-trip" `Quick
      test_span_attrs_roundtrip;
    Alcotest.test_case "span result and exceptions" `Quick
      test_span_result_and_exceptions;
    Alcotest.test_case "explicit cross-domain parent" `Quick
      test_explicit_parent;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_fast_path_no_alloc;
    Alcotest.test_case "disabled span transparent" `Quick
      test_disabled_returns_value;
    Alcotest.test_case "failing sink stops tracing" `Quick test_failing_sink_stops;
    Alcotest.test_case "init: --trace, BHIVE_TRACE and bad paths" `Quick test_init_paths;
    Alcotest.test_case "measure path spans under a live sink" `Quick
      test_measure_path_spans;
    Alcotest.test_case "small point: prefix or fallback" `Quick test_prefix_fallback;
    Alcotest.test_case "counter totals" `Quick test_counter_totals;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_buckets;
    Alcotest.test_case "metrics snapshot json" `Quick test_snapshot_json;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json string escapes" `Quick test_json_string_escapes;
    Alcotest.test_case "json escape round-trip" `Quick
      test_json_escape_roundtrip;
    Alcotest.test_case "json deep nesting limit" `Quick test_json_deep_nesting;
    json_roundtrip_prop;
    Alcotest.test_case "diff: identical passes" `Quick test_diff_identical;
    Alcotest.test_case "diff: executed regression" `Quick
      test_diff_executed_regression;
    Alcotest.test_case "diff: at-limit boundary" `Quick
      test_diff_executed_at_limit_passes;
    Alcotest.test_case "diff: hit-rate regression" `Quick
      test_diff_hit_rate_regression;
    Alcotest.test_case "diff: improvement passes" `Quick
      test_diff_improvement_passes;
    Alcotest.test_case "diff: wall warns by default" `Quick
      test_diff_wall_warns_by_default;
    Alcotest.test_case "diff: missing section" `Quick
      test_diff_missing_section_fails;
    Alcotest.test_case "diff: new section" `Quick test_diff_new_section_passes;
    Alcotest.test_case "diff: section regression" `Quick
      test_diff_section_regression_fails;
    Alcotest.test_case "diff: schema too old" `Quick test_diff_schema_check;
    Alcotest.test_case "diff: lost jobs fail" `Quick test_diff_lost_jobs_fail;
    Alcotest.test_case "diff: quarantine regression" `Quick
      test_diff_quarantine_regression;
    Alcotest.test_case "diff: store hit rate" `Quick test_diff_store_hit_rate;
    Alcotest.test_case "diff: min store hit-rate floor" `Quick
      test_diff_min_store_hit_rate_floor;
    Alcotest.test_case "diff: min speedup floor" `Quick test_diff_min_speedup;
    Alcotest.test_case "diff: zero-block baseline speedup" `Quick
      test_diff_min_speedup_zero_baseline;
    Alcotest.test_case "diff: serving invariants" `Quick
      test_diff_serving_invariants;
    Alcotest.test_case "diff: min coalesce floor" `Quick test_diff_min_coalesce;
    Alcotest.test_case "diff: max p99 ceiling" `Quick test_diff_max_p99;
    Alcotest.test_case "diff: min rps floor" `Quick test_diff_min_rps;
    Alcotest.test_case "diff: serving volatile for identity" `Quick
      test_diff_serving_volatile_for_identity;
    Alcotest.test_case "diff: strip volatile" `Quick test_strip_volatile;
    Alcotest.test_case "diff: identical mode" `Quick test_diff_identical_mode;
    Alcotest.test_case "diff: schema v5 accepted" `Quick
      test_diff_schema_v5_accepted;
    Alcotest.test_case "diff: experiment mismatch" `Quick
      test_diff_experiment_mismatch;
    Alcotest.test_case "diff: manifest id informational" `Quick
      test_diff_manifest_id_informational;
    Alcotest.test_case "gate: parse accept and refuse" `Quick test_gate_parse;
    Alcotest.test_case "gate: ==, Kx + N, warn, sections.*" `Quick
      test_gate_semantics;
    Alcotest.test_case "gate: absent path" `Quick test_gate_absent_path;
  ]
