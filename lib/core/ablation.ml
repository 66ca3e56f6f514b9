(** Ablation experiments (Tables I and II of the paper).

    Table I measures what fraction of the suite each incremental
    measurement technique can successfully profile; Table II follows a
    single large TensorFlow block through the same progression of
    configurations, reporting the measured value and miss counters at
    each step.

    Both tables drive the profiler through one shared {!Engine}, so the
    "None" → "Mapping" → "Unrolling" progression reuses memoised
    profiles wherever two configurations fingerprint identically, and
    re-running a table after a dataset build costs only cache hits. *)

type suite_row = {
  technique : string;
  profiled_percent : float;
  n_profiled : int;
  n_total : int;
  n_quarantined : int;
}

let technique_envs =
  [
    ("None", Harness.Environment.agner_baseline);
    ("Mapping all accessed pages", Harness.Environment.with_page_mapping);
    ("More intelligent unrolling", Harness.Environment.default);
  ]

(* Table I: percentage of the suite profiled under each incremental
   technique. One engine batch per technique environment. *)
let suite_ablation ?(uarch = Uarch.All.haswell) ~engine
    (blocks : Corpus.Block.t list) : suite_row list =
  List.map
    (fun (technique, env) ->
      let { Engine.outcomes; _ } =
        Engine.run_batch engine
          (List.map
             (fun (b : Corpus.Block.t) -> { Engine.env; uarch; block = b.insts })
             blocks)
      in
      let ok, quarantined =
        Array.fold_left
          (fun (ok, q) -> function
            | Ok (p : Harness.Profiler.profile) when p.accepted -> (ok + 1, q)
            | Error (Engine.Quarantined _) -> (ok, q + 1)
            | _ -> (ok, q))
          (0, 0) outcomes
      in
      let n = Array.length outcomes in
      {
        technique;
        profiled_percent = 100.0 *. float_of_int ok /. float_of_int n;
        n_profiled = ok;
        n_total = n;
        n_quarantined = quarantined;
      })
    technique_envs

type block_row = {
  optimization : string;
  measured : string;  (** throughput or "Crashed" *)
  l1d_misses : string;
  l1i_misses : string;
}

(* Table II: one block through the five incremental configurations. *)
let block_ablation ?(uarch = Uarch.All.haswell) ~engine
    (block : X86.Inst.t list) : block_row list =
  let configs =
    [
      ("None", Harness.Environment.agner_baseline);
      ( "Page mapping",
        {
          Harness.Environment.default with
          mapping = Harness.Environment.Fresh_pages;
          unroll = Harness.Environment.Naive 100;
          disable_underflow = false;
          drop_misaligned = false;
        } );
      ( "Single physical page",
        {
          Harness.Environment.default with
          unroll = Harness.Environment.Naive 100;
          disable_underflow = false;
          drop_misaligned = false;
        } );
      ( "Disabling gradual underflow",
        {
          Harness.Environment.default with
          unroll = Harness.Environment.Naive 100;
          drop_misaligned = false;
        } );
      ("Using smaller unroll factor", Harness.Environment.default);
    ]
  in
  let { Engine.outcomes; _ } =
    Engine.run_batch engine
      (List.map (fun (_, env) -> { Engine.env; uarch; block }) configs)
  in
  List.mapi
    (fun i (optimization, _) ->
      match outcomes.(i) with
      | Error (Engine.Quarantined _) ->
        {
          optimization;
          measured = "Quarantined";
          l1d_misses = "N/A";
          l1i_misses = "N/A";
        }
      | Error (Engine.Profiler_failure _) ->
        { optimization; measured = "Crashed"; l1d_misses = "N/A"; l1i_misses = "N/A" }
      | Ok (p : Harness.Profiler.profile) ->
        let c = p.large.counters in
        {
          optimization;
          measured = Printf.sprintf "%.1f" p.throughput;
          l1d_misses = string_of_int (c.l1d_read_misses + c.l1d_write_misses);
          l1i_misses = string_of_int c.l1i_misses;
        })
    configs
