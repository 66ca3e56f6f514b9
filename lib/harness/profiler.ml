(** The BHive basic-block profiler.

    For each unroll factor the profiler: (1) runs the monitor/measure
    mapping algorithm, (2) simulates the final execution once from
    flushed caches and discards the result (the paper's first,
    discarded execution; only the L1D, L1I and L2 state it leaves
    outlives it), then (3) takes [env.timings] timed runs,
    each exposed to simulated OS noise. A block is accepted only if at least
    [env.min_clean] timings are clean (no cache misses of any kind, no
    context switches) and identical, and — when the filter is enabled —
    no load or store crossed a cache line. Given a {!Mapping_memo}, step
    (1) looks the mapping up there first; steps (2) and (3) read only
    the mapping's log, faults, frames and L1 residency verdict, so a
    hit changes nothing downstream. When the verdict holds, the warm-up
    would leave every line the timed run touches in L1, so step (2) is
    counted but not simulated and the timed run skips the caches
    ({!Pipeline.Machine.measure}); the result is the same.

    The simulator is deterministic, so of two points the small one's
    timed run is often the large one's stopped early. The large point's
    timed run also takes the result of its first [small × n] steps
    ([n] the block's length). When both verdicts hold and the small
    point's log equals the large log's first [small × n] steps
    ({!Xsem.Step_log.equal_prefix}), that result is the small point's,
    and the small point builds no trace and runs no simulation.
    Otherwise (a larger unroll can fault on more pages, and stores that
    earlier attempts left then change what the final run loads) it is
    traced and measured on its own. Each factor maps into a log of its
    own, so the large log outlives the small point's mapping. *)

open X86

(* Bump whenever the measurement algorithm changes in a way that can
   alter results for the same (env, uarch, block) — the persistent
   store folds this into its generation fingerprint, so a bump
   invalidates every stored measurement at once. *)
let algorithm_version = "bhive-measure-1"

type reject_reason =
  | Misaligned_access  (** MISALIGNED_MEM_REFERENCE counter non-zero *)
  | Never_clean
      (** no timing met the clean criteria (persistent cache misses) *)
  | Unstable  (** fewer than [min_clean] identical clean timings *)

type failure =
  | Mapping_failed of Mapping.failure
  | Rejected of reject_reason

let failure_to_string ?fingerprint f =
  let base =
    match f with
    | Mapping_failed f -> "mapping: " ^ Mapping.failure_to_string f
    | Rejected Misaligned_access -> "rejected: misaligned access"
    | Rejected Never_clean -> "rejected: never clean"
    | Rejected Unstable -> "rejected: unstable timings"
  in
  match fingerprint with
  | None -> base
  | Some fp -> Printf.sprintf "%s [job %s]" base fp

(* Telemetry instruments. Counters are always on (an increment is one
   atomic add); spans are emitted only when a BHIVE_TRACE sink is
   installed. *)
let m_profiles = Telemetry.Metrics.counter "profiler.profiles"
let m_accepted = Telemetry.Metrics.counter "profiler.accepted"
let m_mapping_failed = Telemetry.Metrics.counter "profiler.mapping_failed"

let m_rejected_misaligned =
  Telemetry.Metrics.counter "profiler.rejected.misaligned"

let m_rejected_never_clean =
  Telemetry.Metrics.counter "profiler.rejected.never_clean"

let m_rejected_unstable =
  Telemetry.Metrics.counter "profiler.rejected.unstable"

let h_profile_seconds = Telemetry.Metrics.histogram "profiler.seconds"

(* Result of measuring one unrolled instance. *)
type point = {
  unroll : int;
  accepted_cycles : int option;  (** agreed-upon clean cycle count *)
  best_cycles : int;  (** minimum observed, reported even when unclean *)
  clean_timings : int;  (** of the [env.timings] taken *)
  faults : int;
  distinct_frames : int;
  counters : Pipeline.Counters.t;  (** from the first timed run *)
}

type profile = {
  throughput : float;
  accepted : bool;
  reject : reject_reason option;
  large : point;
  small : point option;
  factors : Unroll.factors;
}

(* OS / measurement noise model: a context switch dirties the timing
   and adds many cycles; small timer jitter perturbs the cycle count
   without dirtying it. Both are what the 16-timings /
   8-identical-clean rule exists to filter. Given the noise-free run's
   cycles and cleanliness, returns one noisy timing's. *)
let apply_noise (env : Environment.t) rng ~cycles ~clean =
  let cycles, clean =
    if Bstats.Rng.bernoulli rng env.context_switch_rate then
      (cycles + 3000 + Bstats.Rng.int rng 4000, false)
    else (cycles, clean)
  in
  let cycles =
    if Bstats.Rng.bernoulli rng 0.05 then cycles + 1 + Bstats.Rng.int rng 3
    else cycles
  in
  (cycles, clean)

(* The measure point's mapping into [log], from the memo when one is
   given, wrapped in a "profiler.mapping" span. The monitor's mapping
   attempts are its restarts: one per intercepted fault plus the final
   complete run. *)
let run_mapping ?memo (env : Environment.t) block ~log ~unroll =
  Telemetry.Trace.span "profiler.mapping"
    ~attrs:(fun result ->
      let open Telemetry.Trace in
      ("unroll", Int unroll)
      ::
      (match result with
      | Ok (m : Mapping_memo.mapped) ->
        [
          ("ok", Bool true);
          ("attempts", Int (m.faults + 1));
          ("faults", Int m.faults);
          ("distinct_frames", Int m.distinct_frames);
        ]
      | Error f -> [ ("ok", Bool false); ("error", Str (Mapping.failure_to_string f)) ]))
    (fun () ->
      match memo with
      | Some (memo, key) -> Mapping_memo.map memo ~key ~log env block ~unroll
      | None -> Mapping_memo.run ~log env block ~unroll)

(* Measure one unroll factor of [block] on [descriptor], mapped into
   [log]: one "profiler.measure" span, carrying the unroll factor tried
   and the mapping/filter-relevant outcome. The point's noise-free
   result is [read_off mapped] when that is [Some], and otherwise its
   trace's [Machine.measure ?prefix]; the point comes back with that
   result. *)
let measure_point ?memo ?prefix ?(read_off = fun _ -> None) (env : Environment.t)
    (descriptor : Uarch.Descriptor.t) rng (block : Inst.t list) ~log ~unroll :
    (point * Pipeline.Core.result, Mapping.failure) result =
  Telemetry.Trace.span "profiler.measure"
    ~attrs:(fun result ->
      let open Telemetry.Trace in
      ("unroll", Int unroll)
      ::
      (match result with
      | Ok ((p : point), _) ->
        [
          ( "accepted_cycles",
            match p.accepted_cycles with Some c -> Int c | None -> Str "none" );
          ("best_cycles", Int p.best_cycles);
          ("faults", Int p.faults);
          ("distinct_frames", Int p.distinct_frames);
        ]
      | Error f -> [ ("mapping_error", Str (Mapping.failure_to_string f)) ]))
  @@ fun () ->
  match run_mapping ?memo env block ~log ~unroll with
  | Error f -> Error f
  | Ok mapped ->
    (* One machine per (domain, uarch), reused across measure points.
       The warm-up and the timed run execute the same steps, so they
       share one trace. [measure] runs the discarded warm-up simulation
       from flushed caches (or nothing when the log fits L1), then one
       steady-state timed run: the simulated machine is deterministic
       once warm, so one simulation gives the noise-free cycle count;
       each of the [env.timings] measurements then sees its own
       independently sampled OS noise, exactly what the repeat-and-
       filter protocol exists to reject. *)
    let base =
      match read_off mapped with
      | Some r -> r
      | None ->
        let machine = Pipeline.Machine.for_descriptor descriptor in
        let trace = Pipeline.Machine.trace machine mapped.steps in
        Pipeline.Machine.measure ?prefix machine ~fits_l1:mapped.fits_l1 trace
    in
    let base_clean = Pipeline.Counters.is_clean base.counters in
    let timings =
      List.init env.timings (fun _ ->
          apply_noise env rng ~cycles:base.cycles ~clean:base_clean)
    in
    (* Most frequent cycle count among clean timings. *)
    let clean =
      List.filter_map (fun (c, ok) -> if ok then Some c else None) timings
    in
    let accepted_cycles =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun c ->
          Hashtbl.replace tbl c
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
        clean;
      Hashtbl.fold
        (fun cyc count best ->
          match best with
          | Some (_, bc) when bc >= count -> best
          | _ when count >= env.min_clean -> Some (cyc, count)
          | _ -> best)
        tbl None
      |> Option.map fst
    in
    let best_cycles =
      List.fold_left (fun acc (c, _) -> Int.min acc c) max_int timings
    in
    Ok
      ( {
          unroll;
          accepted_cycles;
          best_cycles;
          clean_timings = List.length clean;
          faults = mapped.faults;
          distinct_frames = mapped.distinct_frames;
          counters = base.counters;
        },
        base )

(* The logs the large and the small point map into: a pair per profile
   in flight, taken from a pool and given back. Reused rather than made
   per map: a fresh log's arrays, each too large for the minor heap, go
   straight on the major heap. Measured over measure-cold, fresh logs
   for memo hits raised peak RSS by about as much as the memo saved
   elsewhere and cost a tenth of its throughput gain, and fresh logs
   for misses were 4.75M words a pass, nine tenths of what it allocated
   on the major heap. Pooled rather than kept per domain, because the
   engine spawns its workers per batch: per-domain logs were made and
   grown again for every batch, 1.59M major words a two-worker
   measure-cold pass against 0.98M pooled. *)
let spare_logs = ref [] and spare_lock = Mutex.create ()

let with_logs f =
  let log () = Xsem.Step_log.create ~steps:1024 in
  let logs =
    Mutex.protect spare_lock (fun () ->
        match !spare_logs with
        | pair :: rest ->
          spare_logs := rest;
          pair
        | [] -> (log (), log ()))
  in
  let give_back () = Mutex.protect spare_lock (fun () -> spare_logs := logs :: !spare_logs) in
  Fun.protect ~finally:give_back (fun () -> f logs)

(* The block's share of its noise seed: a hash of its printed text.
   With a memo, the block's profiles on every uarch print it once: a
   memo key identifies the block's encoding, which decodes back to the
   block, so equal keys print equal texts. *)
let block_seed ?memo block =
  let compute () =
    Bstats.Rng.seed_of_string (String.concat ";" (List.map Inst.to_string block))
  in
  match memo with
  | Some (memo, key) -> Mapping_memo.seed memo ~key compute
  | None -> compute ()

let reject_to_string = function
  | Misaligned_access -> "misaligned"
  | Never_clean -> "never_clean"
  | Unstable -> "unstable"

(* Count the outcome and, when tracing, emit the filter decision with
   its reason as an instant event. A profile is accepted exactly when it
   has no reject reason. *)
let record_outcome (result : (profile, failure) result) =
  Telemetry.Metrics.incr m_profiles;
  (match result with
  | Ok { reject = None; _ } -> Telemetry.Metrics.incr m_accepted
  | Ok { reject = Some r; _ } ->
    Telemetry.Metrics.incr
      (match r with
      | Misaligned_access -> m_rejected_misaligned
      | Never_clean -> m_rejected_never_clean
      | Unstable -> m_rejected_unstable);
    Telemetry.Trace.instant "profiler.filter" ~attrs:(fun () ->
        [ ("reason", Telemetry.Trace.Str (reject_to_string r)) ])
  | Error f ->
    Telemetry.Metrics.incr m_mapping_failed;
    Telemetry.Trace.instant "profiler.filter" ~attrs:(fun () ->
        [ ("reason", Telemetry.Trace.Str (failure_to_string f)) ]));
  result

(* One profile = one "profiler.profile" span; its filter decision is an
   instant after it ([record_outcome]). *)
let profile ?memo (env : Environment.t) (descriptor : Uarch.Descriptor.t)
    (block : Inst.t list) : (profile, failure) result =
  let t0 = Telemetry.Trace.now_ns () in
  let result =
    Telemetry.Trace.span "profiler.profile"
      ~attrs:(fun result ->
        let open Telemetry.Trace in
        ("uarch", Str descriptor.short)
        :: ("block_insts", Int (List.length block))
        ::
        (match result with
        | Ok (p : profile) ->
          [
            ("accepted", Bool p.accepted);
            ("throughput", Float p.throughput);
            ("unroll_large", Int p.factors.large);
            ("unroll_small", Int p.factors.small);
          ]
        | Error f -> [ ("failure", Str (failure_to_string f)) ]))
    @@ fun () ->
      let seed = Int64.add env.noise_seed (block_seed ?memo block) in
      let rng = Bstats.Rng.create seed in
      let factors = Unroll.choose env.unroll block in
      with_logs @@ fun (large_log, small_log) ->
      (* The small point's timed run is the large one's first [k] steps. *)
      let k = factors.small * List.length block in
      let prefix = if factors.small = 0 then None else Some k in
      match
        measure_point ?memo ?prefix env descriptor rng block ~log:large_log
          ~unroll:factors.large
      with
      | Error f -> Error (Mapping_failed f)
      | Ok (large, large_run) -> (
        (* [large_run.prefix] is there only when the large log fits L1 *)
        let read_off (m : Mapping_memo.mapped) =
          if
            m.fits_l1 && m.steps.steps = k
            && Xsem.Step_log.equal_prefix m.steps large_log ~steps:k
          then Pipeline.Machine.prefix_point large_run
          else None
        in
        let small =
          if factors.small = 0 then Ok None
          else
            Result.map
              (fun (p, _) -> Some p)
              (measure_point ?memo ~read_off env descriptor rng block ~log:small_log
                 ~unroll:factors.small)
        in
        match small with
        | Error f -> Error (Mapping_failed f)
        | Ok small ->
          let misaligned =
            env.drop_misaligned && large.counters.misaligned_mem_refs > 0
          in
          let accepted_large = large.accepted_cycles in
          let accepted_small = Option.map (fun (p : point) -> p.accepted_cycles) small in
          let all_clean_present =
            accepted_large <> None
            && (match accepted_small with Some None -> false | _ -> true)
          in
          let reject =
            if misaligned then Some Misaligned_access
            else if not all_clean_present then
              if large.clean_timings > 0 then Some Unstable
              else Some Never_clean
            else None
          in
          let cl = Option.value accepted_large ~default:large.best_cycles in
          let cs =
            match small with
            | None -> 0
            | Some p -> Option.value p.accepted_cycles ~default:p.best_cycles
          in
          let throughput = Unroll.throughput factors ~cycles_large:cl ~cycles_small:cs in
          Ok
            {
              throughput;
              accepted = reject = None;
              reject;
              large;
              small;
              factors;
            })
  in
  Telemetry.Metrics.observe h_profile_seconds
    (Int64.to_float (Int64.sub (Telemetry.Trace.now_ns ()) t0) /. 1e9);
  record_outcome result

(* Throughput if accepted, in the style the dataset stores. *)
let accepted_throughput = function
  | Ok p when p.accepted -> Some p.throughput
  | _ -> None
