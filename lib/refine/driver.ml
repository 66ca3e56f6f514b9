(** The refinement search driver: coordinate descent over the suspect
    list, every candidate evaluated through the engine + store.

    Determinism contract (the same one [lib/faultsim] honours): the
    accepted-patch sequence, every per-eval error, and the rendered
    report are byte-identical for any worker count and across a
    kill+resume. Everything the search branches on is either a
    deterministic simulation output or replayed verbatim from the
    journal:

    - the reference and initial-candidate runs are re-executed on
      resume (cheap — the store is warm) to rebuild the localizer's
      per-block state, which the journal does not carry;
    - every candidate evaluation is journaled as a [refine_step] record
      carrying the proposal, the error as exact float bits (JSON's
      decimal printing is lossy), the accept decision and the eval's
      store counters; on resume the pending records are verified
      against the regenerated proposal sequence and their outcomes are
      reused without evaluation;
    - store hit/miss counters of *live* evals depend on how much of the
      search ran in this process, so they go to the journal and the
      summary (volatile for identity) but never into the rendered
      report.

    Incrementality: each evaluation builds a fresh engine (the memo is
    keyed by job fingerprint only, which candidates share) in
    block-generation mode over one shared store handle; a candidate
    re-simulates exactly the blocks whose table slice its overlay
    touches, everything else is a warm store hit. *)

type limits = { target_error : float; max_evals : int }

type eval_stats = {
  ev_executed : int;
  ev_store_hits : int;
  ev_store_misses : int;
  ev_store_invalidated : int;
  ev_store_writes : int;
}

let eval_hit_rate s =
  let denom = s.ev_store_hits + s.ev_store_misses + s.ev_store_invalidated in
  if denom = 0 then 0.0
  else float_of_int s.ev_store_hits /. float_of_int denom

type step = {
  st_eval : int;  (** 1-based; eval 1 is the unpatched baseline *)
  st_target : Uarch.Overlay.target option;  (** [None] for the baseline *)
  st_value : int;
  st_error : float;
  st_accepted : bool;
  st_overlay : Uarch.Overlay.t;  (** accepted overlay *after* the step *)
  st_stats : eval_stats;
  st_replayed : bool;
}

type result = {
  r_uarch : string;
  r_blocks : int;  (** reference-measured blocks the error averages over *)
  r_initial_error : float;
  r_final_error : float;
  r_evals : int;
  r_accepted : int;
  r_converged : bool;
  r_overlay : Uarch.Overlay.t;
  r_steps : step list;  (** in eval order *)
  r_suspects : (Uarch.Overlay.target * float) list;
  r_precision : float option;  (** vs the truth overlay, when known *)
  r_recovered : bool;  (** final candidate profile = reference profile *)
  r_hit_rate : float;  (** store hit rate across evals 2.. *)
}

let m_evals = Telemetry.Metrics.counter "refine.evals"
let m_accepted = Telemetry.Metrics.counter "refine.accepted"
let m_replayed = Telemetry.Metrics.counter "refine.steps_replayed"

(* --- journal records --------------------------------------------------- *)

let error_bits e = Printf.sprintf "%016Lx" (Int64.bits_of_float e)

let bits_error s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some b -> Int64.float_of_bits b
  | None -> failwith "refine: bad error_bits in journal"

let step_json (s : step) =
  let open Telemetry in
  Json.Object
    [
      ("type", Json.String "refine_step");
      ("eval", Json.Number (float_of_int s.st_eval));
      ( "target",
        match s.st_target with
        | None -> Json.Null
        | Some t -> Json.String (Uarch.Overlay.name t) );
      ("value", Json.Number (float_of_int s.st_value));
      ("error_bits", Json.String (error_bits s.st_error));
      ("error", Json.Number s.st_error);
      ("accepted", Json.Bool s.st_accepted);
      ("overlay", Json.String (Uarch.Overlay.to_string s.st_overlay));
      ("overlay_digest", Json.String (Engine.overlay_digest s.st_overlay));
      ("executed", Json.Number (float_of_int s.st_stats.ev_executed));
      ("store_hits", Json.Number (float_of_int s.st_stats.ev_store_hits));
      ("store_misses", Json.Number (float_of_int s.st_stats.ev_store_misses));
      ( "store_invalidated",
        Json.Number (float_of_int s.st_stats.ev_store_invalidated) );
      ("store_writes", Json.Number (float_of_int s.st_stats.ev_store_writes));
    ]

(* Parse the fields replay verifies or reuses; unknown fields are
   ignored so the record can grow. *)
type replayed = {
  rp_eval : int;
  rp_target : Uarch.Overlay.target option;
  rp_value : int;
  rp_error : float;
  rp_accepted : bool;
  rp_stats : eval_stats;
}

let parse_step j =
  let open Telemetry in
  let num name =
    match Option.bind (Json.member name j) Json.number with
    | Some v -> int_of_float v
    | None -> failwith ("refine: journal step missing " ^ name)
  in
  let rp_target =
    match Json.member "target" j with
    | Some (Json.String s) -> (
      match Uarch.Overlay.of_name s with
      | Some t -> Some t
      | None -> failwith ("refine: unknown journal target " ^ s))
    | _ -> None
  in
  let rp_error =
    match Option.bind (Json.member "error_bits" j) Json.string_value with
    | Some s -> bits_error s
    | None -> failwith "refine: journal step missing error_bits"
  in
  let rp_accepted =
    match Json.member "accepted" j with
    | Some (Json.Bool b) -> b
    | _ -> failwith "refine: journal step missing accepted"
  in
  {
    rp_eval = num "eval";
    rp_target;
    rp_value = num "value";
    rp_error;
    rp_accepted;
    rp_stats =
      {
        ev_executed = num "executed";
        ev_store_hits = num "store_hits";
        ev_store_misses = num "store_misses";
        ev_store_invalidated = num "store_invalidated";
        ev_store_writes = num "store_writes";
      };
  }

(* --- evaluation through the engine ------------------------------------- *)

(* Raised when the eval budget is exhausted or the target error is
   reached; unwinds the proposal loops. *)
exception Converged
exception Budget

type outcome_row = { o_tp : float option; o_counters : Pipeline.Counters.t option }

let outcome_row (o : Engine.outcome) =
  match o with
  | Ok p -> { o_tp = Some p.Harness.Profiler.throughput;
              o_counters = Some p.Harness.Profiler.large.counters }
  | Error _ -> { o_tp = None; o_counters = None }

(* Run the whole corpus under [desc] through a fresh block-generation
   engine sharing [store]; returns per-block rows + the engine's stats
   (which, engine being fresh, are exactly this eval's). *)
let run_corpus ?jobs ?store ?progress ~env ~(desc : Uarch.Descriptor.t) corpus =
  let eng = Engine.create ?jobs ?store ?progress ~block_generation:true () in
  let jobs_list =
    List.map (fun block -> { Engine.env; uarch = desc; block }) corpus
  in
  let batch = Engine.run_batch eng jobs_list in
  let s = Engine.stats eng in
  ( Array.map outcome_row batch.Engine.outcomes,
    {
      ev_executed = s.Engine.executed;
      ev_store_hits = s.Engine.store_hits;
      ev_store_misses = s.Engine.store_misses;
      ev_store_invalidated = s.Engine.store_invalidated;
      ev_store_writes = s.Engine.store_writes;
    } )

(* Mean relative throughput error over the reference-measured blocks; a
   candidate failure on a measured block costs a full 1.0. Summation
   order is block order: deterministic. *)
let error_against ~(ref_rows : outcome_row array) (rows : outcome_row array) =
  let sum = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun b r ->
      match r.o_tp with
      | None -> ()
      | Some tr ->
        incr n;
        let e =
          match rows.(b).o_tp with
          | None -> 1.0
          | Some tc ->
            if tr > 0.0 then Float.abs (tc -. tr) /. tr
            else Float.abs (tc -. tr)
        in
        sum := !sum +. e)
    ref_rows;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let block_deltas ~(ref_rows : outcome_row array) (rows : outcome_row array)
    ~n_ports =
  Array.mapi
    (fun b r ->
      match r.o_tp with
      | None -> { Localize.bd_error = 0.0; bd_port_delta = Array.make n_ports 0.0 }
      | Some tr ->
        let bd_error =
          match rows.(b).o_tp with
          | None -> 1.0
          | Some tc ->
            if tr > 0.0 then Float.abs (tc -. tr) /. tr
            else Float.abs (tc -. tr)
        in
        let bd_port_delta = Array.make n_ports 0.0 in
        (match (r.o_counters, rows.(b).o_counters) with
        | Some cr, Some cc ->
          let pr = cr.Pipeline.Counters.port_cycles
          and pc = cc.Pipeline.Counters.port_cycles in
          for q = 0 to n_ports - 1 do
            let vr = if q < Array.length pr then pr.(q) else 0
            and vc = if q < Array.length pc then pc.(q) else 0 in
            bd_port_delta.(q) <- Float.abs (float_of_int (vc - vr))
          done
        | _ -> ());
        { Localize.bd_error; bd_port_delta })
    ref_rows

(* --- the search -------------------------------------------------------- *)

let run ?jobs ?store ?progress ?(record_step = fun _ -> ())
    ?(prior_steps = []) ?truth ~(env : Harness.Environment.t)
    ~(reference : Uarch.Descriptor.t) ~(start : Uarch.Profile.t)
    ~(corpus : X86.Inst.t list list) (limits : limits) : result =
  if limits.max_evals < 1 then invalid_arg "Refine.Driver.run: max_evals < 1";
  (* Disjoint store key spaces: the reference truth and the candidates
     never supersede each other's records, or anyone else's. *)
  let ref_desc = { reference with short = reference.short ^ "~ref" } in
  let cand_desc profile =
    { reference with short = reference.short ^ "~cand"; profile }
  in
  let measure name desc =
    Telemetry.Trace.span "refine.eval"
      ~attrs:(fun _ -> [ ("what", Telemetry.Trace.Str name) ])
      (fun () -> run_corpus ?jobs ?store ?progress ~env ~desc corpus)
  in
  let ref_rows, _ = measure "reference" ref_desc in
  let n_measured =
    Array.fold_left (fun n r -> if r.o_tp <> None then n + 1 else n) 0 ref_rows
  in
  (* replay queue *)
  let pending = ref (List.map parse_step prior_steps) in
  let evals = ref 0 in
  let steps = ref [] in
  let best = ref infinity in
  let overlay = ref Uarch.Overlay.empty in
  let baseline_rows = ref [||] in
  (* One candidate evaluation: replayed from the journal when the next
     pending record matches the proposal, executed otherwise. The
     baseline (eval 1) always executes — the localizer needs its
     per-block rows — but a replayed baseline reports the journaled
     stats so the recorded history stays the single source of truth. *)
  let eval_candidate (target : Uarch.Overlay.target option) value =
    if !evals >= limits.max_evals then raise Budget;
    incr evals;
    Telemetry.Metrics.incr m_evals;
    let ov' =
      match target with
      | None -> !overlay
      | Some t -> Uarch.Overlay.update !overlay t value
    in
    let replay =
      match !pending with
      | [] -> None
      | rp :: rest ->
        if rp.rp_eval <> !evals || rp.rp_target <> target || rp.rp_value <> value
        then
          failwith
            (Printf.sprintf
               "refine: journal step %d does not match regenerated proposal \
                (journaled %s=%d, proposed %s=%d) — wrong journal for this \
                search"
               !evals
               (match rp.rp_target with
               | None -> "baseline"
               | Some t -> Uarch.Overlay.name t)
               rp.rp_value
               (match target with
               | None -> "baseline"
               | Some t -> Uarch.Overlay.name t)
               value);
        pending := rest;
        Some rp
    in
    let error, accepted, stats, replayed =
      match replay with
      | Some rp ->
        Telemetry.Metrics.incr m_replayed;
        if target = None then begin
          let rows, _ = measure "baseline(resume)" (cand_desc start) in
          baseline_rows := rows
        end;
        (rp.rp_error, rp.rp_accepted, rp.rp_stats, true)
      | None ->
        let profile = Uarch.Overlay.apply start ov' in
        let rows, stats = measure "candidate" (cand_desc profile) in
        if target = None then baseline_rows := rows;
        let error = error_against ~ref_rows rows in
        (* strict decrease; ties keep the incumbent *)
        let accepted = target = None || error < !best in
        (error, accepted, stats, false)
    in
    let st =
      {
        st_eval = !evals;
        st_target = target;
        st_value = value;
        st_error = error;
        st_accepted = accepted;
        st_overlay = (if accepted then ov' else !overlay);
        st_stats = stats;
        st_replayed = replayed;
      }
    in
    if not replayed then record_step (step_json st);
    steps := st :: !steps;
    if accepted then begin
      if target <> None then Telemetry.Metrics.incr m_accepted;
      overlay := ov';
      best := error;
      if error <= limits.target_error then raise Converged
    end;
    (error, accepted)
  in
  let current_value t = Uarch.Overlay.get (Uarch.Overlay.apply start !overlay) t in
  let suspects = ref [] in
  (try
     (* eval 1: the unpatched candidate — the initial error *)
     ignore (eval_candidate None 0);
     let deltas =
       block_deltas ~ref_rows !baseline_rows ~n_ports:reference.n_ports
     in
     suspects :=
       Localize.rank ~cand:(cand_desc start) ~corpus ~deltas;
     (* coordinate descent, first-improvement, passes until a full pass
        accepts nothing *)
     let improved = ref true in
     while !improved do
       improved := false;
       List.iter
         (fun (t, _score) ->
           match t with
           | Uarch.Overlay.Lat _ ->
             (* try +1; walk further in whichever direction improves *)
             let walk dir =
               let continue_ = ref true in
               while !continue_ do
                 let v = current_value t + dir in
                 if v < 1 then continue_ := false
                 else begin
                   let _, acc = eval_candidate (Some t) v in
                   if acc then improved := true else continue_ := false
                 end
               done
             in
             let v0 = current_value t in
             let _, up = eval_candidate (Some t) (v0 + 1) in
             if up then begin
               improved := true;
               walk 1
             end
             else if v0 > 1 then begin
               let _, down = eval_candidate (Some t) (v0 - 1) in
               if down then begin
                 improved := true;
                 walk (-1)
               end
             end
           | Uarch.Overlay.Ports _ ->
             (* greedy bit flips over the machine's ports *)
             for q = 0 to reference.n_ports - 1 do
               let v = current_value t lxor (1 lsl q) in
               if v <> 0 then begin
                 let _, acc = eval_candidate (Some t) v in
                 if acc then improved := true
               end
             done
           | Uarch.Overlay.Uops _ ->
             let v0 = current_value t in
             let v = if v0 = 1 then 2 else 1 in
             let _, acc = eval_candidate (Some t) v in
             if acc then improved := true)
         !suspects
     done
   with
  | Converged -> ()
  | Budget -> ());
  if !pending <> [] then
    failwith
      (Printf.sprintf
         "refine: %d journaled steps left unreplayed — journal does not \
          belong to this search"
         (List.length !pending));
  let steps = List.rev !steps in
  let initial_error =
    match steps with s :: _ -> s.st_error | [] -> infinity
  in
  let final_error = !best in
  let cand_evals = List.filter (fun s -> s.st_eval > 1) steps in
  let agg f = List.fold_left (fun a s -> a + f s.st_stats) 0 cand_evals in
  let hits = agg (fun s -> s.ev_store_hits) in
  let denom =
    hits
    + agg (fun s -> s.ev_store_misses)
    + agg (fun s -> s.ev_store_invalidated)
  in
  {
    r_uarch = reference.short;
    r_blocks = n_measured;
    r_initial_error = initial_error;
    r_final_error = final_error;
    r_evals = !evals;
    r_accepted =
      List.length (List.filter (fun s -> s.st_accepted && s.st_eval > 1) steps);
    r_converged = final_error <= limits.target_error;
    r_overlay = !overlay;
    r_steps = steps;
    r_suspects = !suspects;
    r_precision =
      Option.map
        (fun tr ->
          Localize.precision
            ~suspects:(List.map fst !suspects)
            ~truth:(List.map (fun e -> e.Uarch.Overlay.target) tr))
        truth;
    r_recovered = Uarch.Overlay.apply start !overlay = reference.profile;
    r_hit_rate =
      (if denom = 0 then 0.0 else float_of_int hits /. float_of_int denom);
  }

(* --- rendering --------------------------------------------------------- *)

(* The deterministic report: everything here must be byte-identical for
   any worker count and across kill+resume, because section-output
   digests pin it. Store counters are deliberately absent (a resumed
   run re-warms differently); they live in the summary object. *)
let report (r : result) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "refine %s: %d measured blocks, %d suspects\n" r.r_uarch
    r.r_blocks
    (List.length r.r_suspects);
  List.iteri
    (fun i (t, s) ->
      if i < 10 then
        Printf.bprintf b "  suspect %2d: %-18s score %.4f\n" (i + 1)
          (Uarch.Overlay.name t) s)
    r.r_suspects;
  List.iter
    (fun s ->
      Printf.bprintf b "eval %3d  %-24s error %.6f  %s\n" s.st_eval
        (match s.st_target with
        | None -> "baseline"
        | Some t ->
          Printf.sprintf "%s=%s" (Uarch.Overlay.name t)
            (match t with
            | Uarch.Overlay.Ports _ -> Uarch.Port.name s.st_value
            | _ -> string_of_int s.st_value))
        s.st_error
        (if s.st_eval = 1 then "measured"
         else if s.st_accepted then "accepted"
         else "rejected"))
    r.r_steps;
  Printf.bprintf b "accepted patch: %s\n" (Uarch.Overlay.to_string r.r_overlay);
  Printf.bprintf b "error %.6f -> %.6f in %d evals (%d accepted)%s\n"
    r.r_initial_error r.r_final_error r.r_evals r.r_accepted
    (match r.r_precision with
    | Some p -> Printf.sprintf ", localization precision %.2f" p
    | None -> "");
  Printf.bprintf b "%s%s\n"
    (if r.r_converged then "converged" else "NOT converged")
    (if r.r_recovered then ", reference profile recovered" else "");
  Buffer.contents b

let summary_json ?truth (r : result) =
  let open Telemetry in
  Json.Object
    ([
       ("uarch", Json.String r.r_uarch);
       ("blocks", Json.Number (float_of_int r.r_blocks));
       ("initial_error", Json.Number r.r_initial_error);
       ("final_error", Json.Number r.r_final_error);
       ("evals", Json.Number (float_of_int r.r_evals));
       ("accepted", Json.Number (float_of_int r.r_accepted));
       ("converged", Json.Bool r.r_converged);
       ("overlay", Json.String (Uarch.Overlay.to_string r.r_overlay));
       ("overlay_digest", Json.String (Engine.overlay_digest r.r_overlay));
       ("store_hit_rate", Json.Number r.r_hit_rate);
       ( "suspects",
         Json.List
           (List.filteri (fun i _ -> i < 10) r.r_suspects
           |> List.map (fun (t, s) ->
                  Json.Object
                    [
                      ("target", Json.String (Uarch.Overlay.name t));
                      ("score", Json.Number s);
                    ])) );
       ( "per_eval",
         Json.List
           (List.map
              (fun s ->
                Json.Object
                  [
                    ("eval", Json.Number (float_of_int s.st_eval));
                    ("executed", Json.Number (float_of_int s.st_stats.ev_executed));
                    ("hit_rate", Json.Number (eval_hit_rate s.st_stats));
                    ("accepted", Json.Bool s.st_accepted);
                  ])
              r.r_steps) );
     ]
    @ [ ("recovered", Json.Bool r.r_recovered) ]
    @ (match r.r_precision with
      | Some p -> [ ("precision", Json.Number p) ]
      | None -> [])
    @
    match truth with
    | Some t -> [ ("truth", Json.String (Uarch.Overlay.to_string t)) ]
    | None -> [])
