(* measure-cold and measure-warm: the engine, store, harness and
   pipeline driven in-process, in the shape Dataset.build submits (one
   Engine.run_batch per uarch). *)

open Common
module S = Perfbench.Stats

(* Corpus scale divisors (1/N of the paper's per-application counts),
   chosen so that one cold pass takes a few seconds and one warm pass
   tens of milliseconds on a 2-core host. *)
let cold_scale = 700
let warm_scale = 4000

(* The timed clock: monotonic time minus the checks made between
   passes, so events of different passes sit on one continuous
   timeline. *)
type clock = {
  last : (int, int64) Hashtbl.t;  (** per domain: its last completion *)
  events : S.Events.t;
  mutable paused_ns : float;
  mutable lat_samples : int;
}

let new_clock () =
  { last = Hashtbl.create 4; events = S.Events.create (); paused_ns = 0.0; lat_samples = 0 }

let timed_now clock = Int64.to_float (now_ns ()) -. clock.paused_ns

(* Exclude [f]'s time from the timed clock. *)
let paused clock f =
  let t0 = now_ns () in
  Fun.protect ~finally:(fun () -> clock.paused_ns <- clock.paused_ns +. ns_since t0) f

let add_event clock ~ops ~lat =
  S.Events.add clock.events ~at:(timed_now clock) ~ops ~lat;
  if not (Float.is_nan lat) then clock.lat_samples <- clock.lat_samples + 1

(* Per-block service time in place. The engine calls its progress hook
   on the worker domain right after a job resolves (under the engine's
   lock), so the gap between two completions on one domain is the
   second job's resolve time: profile, store put and dequeue. A domain's
   first completion in a batch has no observed start and carries no
   latency sample. *)
let hook clock ~done_:_ ~total:_ =
  let d = (Domain.self () :> int) in
  let now = now_ns () in
  let lat =
    match Hashtbl.find_opt clock.last d with
    | Some t -> Int64.to_float (Int64.sub now t)
    | None -> Float.nan
  in
  add_event clock ~ops:1 ~lat;
  Hashtbl.replace clock.last d now

(* What a timed phase leaves behind, summed over its passes. *)
type phase = {
  start_ns : float;  (** on the phase's timed clock *)
  wall_s : float;  (** timed wall time *)
  slots : int;  (** ops: blocks resolved *)
  first : Engine.outcome array list;  (** the first pass, per uarch *)
  bad : int;  (** slots failed: see [bad_slots] *)
  stats : Engine.stats list;  (** one per engine *)
  busy_s : float;  (** worker busy seconds *)
  batch_s : float;  (** wall seconds inside Engine.run_batch *)
  gc : gc_delta;
  peak_mb : float;  (** the process's peak RSS over the timed passes *)
}

let total_slots jobs = List.fold_left (fun a l -> a + List.length l) 0 jobs

(* One pass: one run_batch per uarch through [engine], each batch
   optionally recorded as a span; [on_batch] and [after_batch] (given
   the batch's size) run around each. Returns the outcomes and each
   batch's seconds. *)
let run_batches ?(traced = false) ?(on_batch = ignore) ?(after_batch = ignore) engine jobs =
  List.split
    (List.map
       (fun js ->
         on_batch ();
         let t0 = now_ns () in
         let b =
           if traced then
             Perfbench.Spans.with_span "engine.run_batch" (fun () -> Engine.run_batch engine js)
           else Engine.run_batch engine js
         in
         after_batch (List.length js);
         (b.Engine.outcomes, s_since t0))
       jobs)

let need = S.samples_needed 0.99

(* Repeat [pass] until [seconds] of timed wall time have passed and
   the run holds enough latency samples for one window, giving up at
   four times [seconds] (the percentile refusal then fails the run).
   Returns the timed seconds. *)
let timed_loop ~seconds clock pass =
  let start = timed_now clock in
  let elapsed () = (timed_now clock -. start) /. 1e9 in
  let rec go () =
    pass ();
    if (elapsed () < seconds || clock.lat_samples < need) && elapsed () < 4.0 *. seconds then go ()
  in
  go ();
  (start, elapsed ())

(* Slots of a pass that were quarantined or differ from [reference]. A
   profiler rejection or mapping failure is an answer, not a failure. *)
let bad_slots ~reference outcomes =
  List.fold_left2
    (fun acc a r ->
      let n = ref acc in
      Array.iteri
        (fun i o ->
          match o with
          | Error (Engine.Quarantined _) -> incr n
          | _ -> if compare o r.(i) <> 0 then incr n)
        a;
      !n)
    0 outcomes reference

let flat_outcomes pass = List.concat_map Array.to_list pass

let sum_stats f stats = List.fold_left (fun a s -> a + f s) 0 stats

(* ------------------------------------------------------------------ *)
(* measure-cold                                                        *)
(* ------------------------------------------------------------------ *)

type cold_engine = { dir : string; store : Store.t; engine : Engine.t }

let cold_engine args clock =
  let dir = fresh_dir args "cold-store" in
  let store = Store.open_ dir in
  { dir; store; engine = new_engine ~store ~progress:(hook clock) () }

(* Cold passes, each through a fresh engine and store ([first] is the
   one setup created), checked against the first pass and deleted
   outside the timed window. *)
let cold_phase args ~traced ~seconds clock jobs first =
  let next = ref (Some first) and reference = ref [] and bad = ref 0 in
  let slots = ref 0 and stats = ref [] and busy = ref 0.0 and batch = ref 0.0 in
  let gc0 = Gc.quick_stat () in
  (* The peak over the whole timed phase: the runtime keeps the memory
     it has grown into, so a pass's own peak climbs over the first
     passes and then levels off, and only the level does not depend on
     how many passes a run fits in. *)
  reset_peak "self";
  let pass () =
    let e = match !next with Some e -> e | None -> cold_engine args clock in
    next := None;
    let hooked = S.Events.length clock.events in
    let outcomes, times =
      run_batches ~traced ~on_batch:(fun () -> Hashtbl.reset clock.last) e.engine jobs
    in
    Store.close e.store;
    (* duplicates within a batch resolve through the memo, unhooked *)
    add_event clock
      ~ops:(total_slots jobs - (S.Events.length clock.events - hooked))
      ~lat:Float.nan;
    paused clock (fun () ->
        if !reference = [] then reference := outcomes;
        bad := !bad + bad_slots ~reference:!reference outcomes;
        slots := !slots + total_slots jobs;
        stats := Engine.stats e.engine :: !stats;
        busy := !busy +. Layers.worker_busy_s e.engine;
        batch := List.fold_left ( +. ) !batch times;
        rm_rf e.dir)
  in
  let start_ns, wall_s = timed_loop ~seconds clock pass in
  {
    start_ns;
    wall_s;
    slots = !slots;
    first = !reference;
    bad = !bad;
    stats = !stats;
    busy_s = !busy;
    batch_s = !batch;
    gc = gc_since gc0;
    peak_mb = vm_hwm_mb "self";
  }

let cold args =
  let clock = new_clock () in
  let (items, first), setup_s =
    repeated_setup
      ~n:(if args.trace then 1 else 7)
      ~discard:(fun (_, e) ->
        Store.close e.store;
        rm_rf e.dir)
      (fun () ->
        let blocks = corpus ~scale:cold_scale ~seed:args.seed in
        (jobs_by_uarch blocks, cold_engine args clock))
  in
  let jobs = List.map (List.map snd) items in
  say "measure-cold: %d blocks x 3 uarches = %d jobs per pass, %d workers"
    (List.length (List.nth items 1)) (total_slots jobs) workers;
  let seconds = if args.trace then args.seconds /. 2.0 else args.seconds in
  let p = cold_phase args ~traced:false ~seconds clock jobs first in
  let first_pass = p.first in
  let digest = S.outcome_sha256 (flat_outcomes first_pass) in
  let failed = p.bad in
  let calls = sum_stats (fun s -> s.Engine.profiler_calls) p.stats in
  say "measure-cold: %d passes, %d blocks in %.3f s, %d profiler calls, %d failed"
    (List.length p.stats) p.slots p.wall_s calls failed;
  let ops_per_s = float_of_int p.slots /. p.wall_s in
  let metrics =
    if not args.trace then
      e2e_metrics ~start_ns:p.start_ns [ clock.events ] ~setup_s ~rss_mb:p.peak_mb
    else begin
      let c = new_clock () in
      let t = cold_phase args ~traced:true ~seconds c jobs (cold_engine args c) in
      let flat = List.concat jobs in
      let outcomes = flat_outcomes first_pass in
      let with_outcomes = List.combine flat outcomes in
      let hsw = List.combine (List.nth items 1) (List.nth first_pass 1 |> Array.to_list) in
      let r =
        Layers.replay args
          ~busy_share:(p.busy_s /. (float_of_int workers *. p.batch_s))
          ~profile_jobs:(Layers.sample 120 flat) ~fp_jobs:flat ~items:with_outcomes
          ~serve_items:(List.map (fun ((b, _), o) -> (b, o)) (Layers.sample 64 hsw))
          ~batch:1 ()
      in
      let rtt, share =
        Serving.mini_rtt args (List.map (fun ((b, _), _) -> b) (Layers.sample 32 hsw))
      in
      let op_us = 1e6 /. ops_per_s in
      let per_op name = Layers.per_op_us r.totals name ~ops:r.n_profiled in
      Layers.metrics r
      @ [
          ("engine.store_hit_share", Engine.store_hit_rate (List.hd p.stats), "ratio");
          ("engine.profiler_calls", float_of_int calls, "count");
          ( "serve.rtt_unaccounted_us",
            Layers.rtt_unaccounted r rtt,
            "us" );
          ("serve.cache_answered_share", share, "ratio");
        ]
      @ gc_metrics p.gc ~ops:p.slots
      @ [
          ( "unaccounted_share",
            Layers.unaccounted_share ~op_wall_us:op_us
              [
                ("engine.fingerprint", Layers.us r "engine.fingerprint", 1);
                ("harness.mapping", per_op "harness.mapping", workers);
                ("pipeline.trace", per_op "pipeline.trace", workers);
                ("pipeline.core", per_op "pipeline.core", workers);
                ("store.put", Layers.us r "store.put", workers);
              ],
            "ratio" );
          ("trace_overhead_share", 1.0 -. (float_of_int t.slots /. t.wall_s /. ops_per_s), "ratio");
        ]
    end
  in
  { correct = failed = 0; attempted = p.slots; failed; digest; metrics }

(* ------------------------------------------------------------------ *)
(* measure-warm                                                        *)
(* ------------------------------------------------------------------ *)

(* Setup: a fresh store filled by one cold pass. *)
let fill args items =
  let dir = fresh_dir args "warm-store" in
  let store = Store.open_ dir in
  let engine = new_engine ~store () in
  let outcomes, _ = run_batches engine (List.map (List.map snd) items) in
  Store.close store;
  (dir, outcomes, Engine.stats engine)

(* Warm passes: re-open the filled store, resolve every block through a
   fresh engine, close. No job executes, so the progress hook never
   fires: each per-uarch batch gives one latency sample, its wall time
   per job (batches differ in size: ivb drops AVX2 blocks). Every pass
   is checked against the fill pass outside the timed window. *)
let warm_phase ~traced ~seconds ~dir ~fill_outcomes jobs =
  let clock = new_clock () in
  let slots = ref 0 and stats = ref [] and bad = ref 0 and first = ref [] in
  let gc0 = Gc.quick_stat () in
  (* the peak over the whole timed phase, as in [cold_phase] *)
  reset_peak "self";
  let pass () =
    let store =
      if traced then Perfbench.Spans.with_span "store.open_pass" (fun () -> Store.open_ dir)
      else Store.open_ dir
    in
    let engine = new_engine ~store () in
    let b0 = ref 0L in
    let outcomes, _ =
      run_batches ~traced engine jobs
        ~on_batch:(fun () -> b0 := now_ns ())
        ~after_batch:(fun n -> add_event clock ~ops:n ~lat:(ns_since !b0 /. float_of_int n))
    in
    Store.close store;
    paused clock (fun () ->
        if !first = [] then first := outcomes;
        bad := !bad + bad_slots ~reference:fill_outcomes outcomes;
        slots := !slots + total_slots jobs;
        stats := Engine.stats engine :: !stats)
  in
  let start_ns, wall_s = timed_loop ~seconds clock pass in
  ( {
      start_ns;
      wall_s;
      slots = !slots;
      first = !first;
      bad = !bad;
      stats = !stats;
      busy_s = 0.0;
      batch_s = 0.0;
      gc = gc_since gc0;
      peak_mb = vm_hwm_mb "self";
    },
    clock )

let warm args =
  let (items, (dir, fill_outcomes, fill_stats)), setup_s =
    repeated_setup
      ~n:(if args.trace then 1 else 3)
      ~discard:(fun (_, (dir, _, _)) -> rm_rf dir)
      (fun () ->
        let items = jobs_by_uarch (corpus ~scale:warm_scale ~seed:args.seed) in
        (items, fill args items))
  in
  let jobs = List.map (List.map snd) items in
  let fill_digest = S.outcome_sha256 (flat_outcomes fill_outcomes) in
  say "measure-warm: %d jobs per pass filled with %d profiler calls; fill digest %s"
    (total_slots jobs) fill_stats.Engine.profiler_calls fill_digest;
  let seconds = if args.trace then args.seconds /. 2.0 else args.seconds in
  let p, clock = warm_phase ~traced:false ~seconds ~dir ~fill_outcomes jobs in
  let digest = S.outcome_sha256 (flat_outcomes p.first) in
  let calls = sum_stats (fun s -> s.Engine.profiler_calls) p.stats in
  let digest_ok = digest = fill_digest in
  say "measure-warm: %d passes, %d blocks in %.3f s, %d profiler calls, %d failed, digest %s"
    (List.length p.stats) p.slots p.wall_s calls p.bad
    (if digest_ok then "equals the fill pass" else "DIFFERS from the fill pass");
  let failed = p.bad in
  let ops_per_s = float_of_int p.slots /. p.wall_s in
  let metrics =
    if not args.trace then
      e2e_metrics ~start_ns:p.start_ns [ clock.events ] ~setup_s ~rss_mb:p.peak_mb
    else begin
      let t, _ = warm_phase ~traced:true ~seconds ~dir ~fill_outcomes jobs in
      let flat = List.concat jobs in
      let with_outcomes = List.combine flat (flat_outcomes fill_outcomes) in
      let hsw = List.combine (List.nth items 1) (Array.to_list (List.nth fill_outcomes 1)) in
      let r =
        Layers.replay args ~open_dir:dir ~profile_jobs:(Layers.sample 12 flat) ~fp_jobs:flat
          ~items:with_outcomes
          ~serve_items:(List.map (fun ((b, _), o) -> (b, o)) (Layers.sample 64 hsw))
          ~batch:1 ()
      in
      let rtt, share =
        Serving.mini_rtt args (List.map (fun ((b, _), _) -> b) (Layers.sample 32 hsw))
      in
      let lookups =
        sum_stats (fun s -> s.Engine.store_hits + s.store_misses + s.store_invalidated) p.stats
      in
      let per_pass = float_of_int (total_slots jobs) in
      Layers.metrics r
      @ [
          ( "engine.store_hit_share",
            Layers.ratio (sum_stats (fun s -> s.Engine.store_hits) p.stats) lookups,
            "ratio" );
          ("engine.profiler_calls", float_of_int calls, "count");
          ( "serve.rtt_unaccounted_us",
            Layers.rtt_unaccounted r rtt,
            "us" );
          ("serve.cache_answered_share", share, "ratio");
        ]
      @ gc_metrics p.gc ~ops:p.slots
      @ [
          ( "unaccounted_share",
            Layers.unaccounted_share ~op_wall_us:(1e6 /. ops_per_s)
              [
                ("engine.fingerprint", Layers.us r "engine.fingerprint", 1);
                ("store.get", Layers.us r "store.get", 1);
                ("engine.decode", Layers.us r "engine.decode", 1);
                ("store.open", Layers.us r "store.open" /. per_pass, 1);
              ],
            "ratio" );
          ("trace_overhead_share", 1.0 -. (float_of_int t.slots /. t.wall_s /. ops_per_s), "ratio");
        ]
    end
  in
  rm_rf dir;
  {
    correct = failed = 0 && digest_ok && calls = 0;
    attempted = p.slots;
    failed;
    digest;
    metrics;
  }
