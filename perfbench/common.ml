(* Plumbing shared by the workloads: the command line, hermetic child
   environments, scratch directories, the host probe and the result
   line. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tmp : string;  (** fresh scratch directory for this run *)
  serve_exe : string;  (** the built bhive_serve executable *)
}

let now_ns = Telemetry.Trace.now_ns
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let s_since t0 = ns_since t0 /. 1e9

(* Where setup time starts: module initialisation of the executable,
   moved past the host probe once that has run. *)
let setup_origin = ref (now_ns ())

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 --tmp \
     DIR --serve-exe PATH";
  exit 2

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let str k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (str k) with Some v -> v | None -> usage () in
  let seconds =
    match float_of_string_opt (str "seconds") with
    | Some s when s > 0.0 -> s
    | _ -> usage ()
  in
  {
    workload = str "workload";
    seed = int "seed";
    seconds;
    trace = int "trace" <> 0;
    tmp = str "tmp";
    serve_exe = str "serve-exe";
  }

(* Never more engine workers, daemon shards or connections than the
   box has cores. *)
let cores = max 1 (Domain.recommended_domain_count ())
let workers = min 2 cores
let connections = min 2 cores

(* Variables that would change what is measured: the engine reads
   BHIVE_JOBS/FAULTS/STORE, the daemon installs a BHIVE_TRACE sink, the
   corpus reads BHIVE_SCALE and the runtime OCAMLRUNPARAM. *)
let ambient =
  [ "BHIVE_JOBS"; "BHIVE_FAULTS"; "BHIVE_STORE"; "BHIVE_TRACE"; "BHIVE_SCALE";
    "OCAMLRUNPARAM" ]

let child_env ?(extra = []) () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> not (List.mem (String.sub kv 0 i) ambient)
         | None -> true)
  |> fun l -> Array.of_list (l @ extra)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

(* A fresh, empty directory under the run's scratch directory. *)
let fresh_dir args name =
  incr dir_counter;
  let d = Filename.concat args.tmp (Printf.sprintf "%s-%d" name !dir_counter) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* A fixed amount of work, timed: each of [workers] domains walks its
   own 1 MiB array. A diagnostic of host drift (CPU and memory) beside
   every run; it is never used to scale a metric. *)
let probe_ms () =
  let work () =
    let n = 1 lsl 17 in
    let a = Array.make n 1 and acc = ref 0 in
    for i = 1 to 8_000_000 do
      let j = i * 7919 land (n - 1) in
      acc := !acc + a.(j);
      a.(j) <- !acc land 0xFF
    done;
    Sys.opaque_identity !acc
  in
  let t0 = now_ns () in
  List.iter (fun d -> ignore (Domain.join d)) (List.init workers (fun _ -> Domain.spawn work));
  ns_since t0 /. 1e6

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* Restart a process's VmHWM from its current RSS (Linux clear_refs
   value 5), so a later [vm_hwm_mb] is the peak of what came after. *)
let reset_peak pid =
  try
    Out_channel.with_open_text (Printf.sprintf "/proc/%s/clear_refs" pid) (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

let say fmt = Printf.printf ("perfbench: " ^^ fmt ^^ "\n%!")

(* Allocation over a phase, from Gc.quick_stat. *)
type gc_delta = { minor_words : float; major_collections : int }

let gc_since (before : Gc.stat) =
  let after = Gc.quick_stat () in
  {
    minor_words = after.minor_words -. before.minor_words;
    major_collections = after.major_collections - before.major_collections;
  }

let gc_metrics d ~ops =
  let ops = float_of_int (max 1 ops) in
  [
    ("gc.minor_words_per_op", d.minor_words /. ops, "words/op");
    ("gc.major_collections_per_kop", float_of_int d.major_collections *. 1000.0 /. ops, "1/kop");
  ]

(* What one workload run produced. [metrics] are the end-to-end metrics
   of an untraced run or the per-layer metrics of a traced one. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  digest : string;
  metrics : (string * float * string) list;
}

(* The last line of standard output: the machine-readable result. *)
let emit r =
  let metric (name, value, unit) =
    if not (Float.is_finite value) then
      failwith (Printf.sprintf "metric %s is not finite" name);
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* The end-to-end metrics of an untraced run; a percentile refusal
   fails the run. p99 is printed as a report-only line: on a shared
   2-core host its run-to-run spread exceeds any bound the benchmark may
   set, so it is not a gated metric. *)
let e2e_metrics ~start_ns events ~setup_s ~rss_mb =
  match Perfbench.Stats.summarize ~start_ns events with
  | Error msg -> failwith msg
  | Ok s ->
    let tenths =
      let w = Array.of_list s.per_window in
      let n = Array.length w in
      let k = min 10 n in
      List.init k (fun d ->
          let part = Array.to_list (Array.sub w (d * n / k) (((d + 1) * n / k) - (d * n / k))) in
          let med f = Perfbench.Stats.median (List.map f part) in
          Printf.sprintf "%.0f/%.4g" (med (fun (o, _, _) -> o)) (med (fun (_, p, _) -> p /. 1e6)))
    in
    say "medians over %d windows of %d events; ops/s and p50 ms of each tenth of the run: %s"
      (List.length s.per_window)
      (List.fold_left (fun a e -> a + Perfbench.Stats.Events.length e) 0 events)
      (String.concat " " tenths);
    say "report-only p99_ms %.17g ms" (s.p99_ns /. 1e6);
    [
      ("ops_per_s", s.ops_per_s, "1/s");
      ("p50_ms", s.p50_ns /. 1e6, "ms");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", rss_mb, "MiB");
    ]

(* Run [setup] [n] times and return the last result with the median
   duration; the first repetition also pays for process start. [discard]
   releases a repetition that will not be measured, untimed. *)
let repeated_setup ~n ~discard setup =
  let rec go k acc last =
    if k = n then (Option.get last, Perfbench.Stats.median acc)
    else begin
      Option.iter discard last;
      let t0 = if k = 0 then !setup_origin else now_ns () in
      let r = setup () in
      go (k + 1) (s_since t0 :: acc) (Some r)
    end
  in
  go 0 [] None

let env = Manifest.Spec.environment_of_filters Manifest.Spec.default_filters

let corpus ~scale ~seed =
  Corpus.Suite.generate ~config:{ Corpus.Suite.scale; seed = Int64.of_int seed } ()

(* One (block, job) list per uarch, in the shape Dataset.build submits:
   blocks using AVX2-class instructions are left out where the uarch
   lacks AVX2. *)
let jobs_by_uarch blocks =
  List.map
    (fun (uarch : Uarch.Descriptor.t) ->
      List.filter_map
        (fun (b : Corpus.Block.t) ->
          if (not uarch.supports_avx2) && Corpus.Block.uses_avx2 b then None
          else Some (b, { Engine.env; uarch; block = b.insts }))
        blocks)
    Uarch.All.all

let new_engine ?store ?progress () =
  Engine.create ~jobs:workers ~faults:Faultsim.none ?store ?progress ()
