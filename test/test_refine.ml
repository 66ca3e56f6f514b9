(* Tests for the descriptor-refinement subsystem (lib/refine) and the
   machinery it leans on: overlay canonicalisation and golden digests,
   the block-sensitive generation semantics that make candidate
   evaluations incremental, the shared table-noise perturbation
   source, the search driver's determinism / resume / recovery
   contract, per-generation store statistics, and the schema-v9
   refine gates in bench-diff. *)

module Overlay = Uarch.Overlay
module Driver = Refine.Driver
module Perturb = Refine.Perturb
module Localize = Refine.Localize
module Json = Telemetry.Json
module Bench_diff = Telemetry.Bench_diff
module Spec = Manifest.Spec
module Journal = Manifest.Journal

let ivb = Uarch.All.ivy_bridge

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* --- overlays: canonical encoding ------------------------------------- *)

let test_overlay_codes_total () =
  List.iteri
    (fun i t ->
      Alcotest.(check int) ("code of " ^ Overlay.name t) i (Overlay.code t);
      (match Overlay.of_code i with
      | Some t' ->
        Alcotest.(check bool) "of_code inverts code" true (t = t')
      | None -> Alcotest.fail "of_code not total");
      match Overlay.of_name (Overlay.name t) with
      | Some t' ->
        Alcotest.(check bool) "of_name inverts name" true (t = t')
      | None -> Alcotest.fail "of_name not total")
    Overlay.all;
  Alcotest.(check int) "n_targets" (List.length Overlay.all) Overlay.n_targets

let test_overlay_canonical () =
  let t1 = Overlay.Lat Overlay.L_imul
  and t2 = Overlay.Ports Overlay.P_alu in
  let o =
    Overlay.canonical
      [
        { Overlay.target = t2; value = 3 };
        { Overlay.target = t1; value = 9 };
        { Overlay.target = t2; value = 5 };
      ]
  in
  Alcotest.(check int) "one edit per target" 2 (List.length o);
  Alcotest.(check (option int)) "later edit wins" (Some 5) (Overlay.find o t2);
  (match o with
  | a :: b :: _ ->
    Alcotest.(check bool) "sorted by code" true
      (Overlay.code a.Overlay.target < Overlay.code b.Overlay.target)
  | _ -> Alcotest.fail "canonical dropped edits");
  let o = Overlay.update o t1 11 in
  Alcotest.(check (option int)) "update" (Some 11) (Overlay.find o t1);
  let o = Overlay.remove o t1 in
  Alcotest.(check (option int)) "remove" None (Overlay.find o t1);
  (* the encoding is order-independent *)
  let a =
    Overlay.canonical
      [ { Overlay.target = t1; value = 2 }; { Overlay.target = t2; value = 3 } ]
  and b =
    Overlay.canonical
      [ { Overlay.target = t2; value = 3 }; { Overlay.target = t1; value = 2 } ]
  in
  Alcotest.(check string) "encode order-independent" (Overlay.encode a)
    (Overlay.encode b)

let test_overlay_apply_inverts () =
  let p = ivb.Uarch.Descriptor.profile in
  List.iter
    (fun t ->
      let v0 = Overlay.get p t in
      let p' = Overlay.apply p [ { Overlay.target = t; value = v0 + 1 } ] in
      Alcotest.(check int) ("set/get " ^ Overlay.name t) (v0 + 1)
        (Overlay.get p' t);
      let p'' = Overlay.apply p' [ { Overlay.target = t; value = v0 } ] in
      Alcotest.(check bool)
        ("undo restores profile via " ^ Overlay.name t)
        true (p'' = p))
    Overlay.all

let test_overlay_golden_digests () =
  (* Pinned: the overlay encoding and its digest are persisted in
     journals and store generations; accidental changes must trip CI. *)
  let o =
    Overlay.canonical
      [
        { Overlay.target = Overlay.Lat Overlay.L_imul; value = 5 };
        { Overlay.target = Overlay.Ports Overlay.P_fp_add; value = 3 };
      ]
  in
  Alcotest.(check string) "encoding bytes" "bhive-overlay-v1\n1=5\n29=3\n"
    (Overlay.encode o);
  Alcotest.(check string) "empty overlay encoding" "bhive-overlay-v1\n"
    (Overlay.encode Overlay.empty);
  Alcotest.(check string) "empty overlay digest"
    "f6972fac5513201f8fd66c7616f62229511f721f62c71e9dac3c109033f61c8f"
    (Engine.overlay_digest Overlay.empty);
  Alcotest.(check string) "overlay digest pinned"
    "08ab32438b84a24b699fcd4ca155511079f8a857357e0d4bb4ff98d492b77d00"
    (Engine.overlay_digest o)

(* Every applicable overlay target must be visible to the generation
   scheme — through a flat invariant-class row, a memory code, or a
   variant opcode's read signature. An invisible target would make a
   perturbation both unrecoverable and store-unsound (stale records
   surviving a table edit). *)
let test_overlay_visible_to_generations () =
  let d = ivb in
  let p = d.Uarch.Descriptor.profile in
  let f = Uarch.Flat.of_profile p ~n_ports:d.Uarch.Descriptor.n_ports in
  let visible t =
    let v = Perturb.value ~seed:7L d t in
    let p' = Overlay.apply p [ { Overlay.target = t; value = v } ] in
    let f' = Uarch.Flat.of_profile p' ~n_ports:d.Uarch.Descriptor.n_ports in
    let class_changed = ref false in
    for k = 0 to Uarch.Flat.n_classes - 1 do
      if
        (not f.Uarch.Flat.variant.(k))
        && Uarch.Flat.encode_class f k <> Uarch.Flat.encode_class f' k
      then class_changed := true;
      if
        f.Uarch.Flat.variant.(k)
        && Overlay.variant_signature p Uarch.Flat.classes.(k)
           <> Overlay.variant_signature p' Uarch.Flat.classes.(k)
      then class_changed := true
    done;
    !class_changed
    || f.Uarch.Flat.load_code <> f'.Uarch.Flat.load_code
    || f.Uarch.Flat.store_addr_code <> f'.Uarch.Flat.store_addr_code
    || f.Uarch.Flat.store_data_code <> f'.Uarch.Flat.store_data_code
    || f.Uarch.Flat.load_bytes <> f'.Uarch.Flat.load_bytes
    || f.Uarch.Flat.store_bytes <> f'.Uarch.Flat.store_bytes
  in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Overlay.name t ^ " is visible to block generations")
        true (visible t))
    (List.filter (Perturb.applicable d) Overlay.all)

(* --- block-sensitive generations --------------------------------------- *)

let imul_block = X86.Parser.block_exn "imul rax, rbx"
let add_block = X86.Parser.block_exn "add rax, rbx"

let patch_lat_imul (d : Uarch.Descriptor.t) delta =
  let t = Overlay.Lat Overlay.L_imul in
  let v = Overlay.get d.Uarch.Descriptor.profile t + delta in
  {
    d with
    Uarch.Descriptor.profile =
      Overlay.apply d.Uarch.Descriptor.profile
        [ { Overlay.target = t; value = v } ];
  }

let test_block_generation_selective () =
  let d = ivb in
  let g_imul = Engine.block_generation d imul_block
  and g_add = Engine.block_generation d add_block in
  Alcotest.(check string) "stable across calls" g_imul
    (Engine.block_generation d imul_block);
  let d' = patch_lat_imul d 3 in
  Alcotest.(check bool) "imul block's generation moves" false
    (g_imul = Engine.block_generation d' imul_block);
  Alcotest.(check string) "add block's generation stays warm" g_add
    (Engine.block_generation d' add_block);
  (* whole-descriptor generations are coarser: both move *)
  Alcotest.(check bool) "whole-descriptor generation moves" false
    (Engine.generation d = Engine.generation d')

let test_block_generation_store_warm () =
  with_dir "bhive-refine-warm" (fun dir ->
      let store = Store.open_ dir in
      Fun.protect ~finally:(fun () -> Store.close store)
        (fun () ->
          let run d =
            let eng =
              Engine.create ~jobs:1 ~faults:Faultsim.none ~store
                ~block_generation:true ()
            in
            let jobs =
              List.map
                (fun block ->
                  { Engine.env = Harness.Environment.default; uarch = d; block })
                [ imul_block; add_block ]
            in
            ignore (Engine.run_batch eng jobs);
            Engine.stats eng
          in
          let cold = run ivb in
          Alcotest.(check int) "cold run executes both" 2 cold.Engine.executed;
          (* unrelated-entry edit: only the imul block re-executes; the
             add block's record is a warm hit under its unchanged
             generation *)
          let warm = run (patch_lat_imul ivb 3) in
          Alcotest.(check int) "edited slice re-executes" 1
            warm.Engine.executed;
          Alcotest.(check int) "unchanged slice is a store hit" 1
            warm.Engine.store_hits))

(* --- table noise (shared perturbation source) --------------------------- *)

let test_table_noise_deterministic () =
  let l1 = Models.Table_noise.latency_named ~seed:5L ~fraction:1.0
      ~amplitude:0.6 "lat.imul" 3
  and l2 = Models.Table_noise.latency_named ~seed:5L ~fraction:1.0
      ~amplitude:0.6 "lat.imul" 3
  in
  Alcotest.(check int) "latency draw deterministic" l1 l2;
  Alcotest.(check bool) "latency never below 1" true
    (Models.Table_noise.latency_named ~seed:5L ~fraction:1.0 ~amplitude:1.0
       "lat.imul" 1
    >= 1);
  Alcotest.(check bool) "seeds decorrelate" true
    (List.exists
       (fun s ->
         Models.Table_noise.hash_name ~seed:s "lat.imul"
         <> Models.Table_noise.hash_name ~seed:1L "lat.imul")
       [ 2L; 3L; 4L ])

let test_table_noise_named_opcode_equivalence () =
  (* the opcode wrappers must produce bit-equal draws to the named
     combinators on the mnemonic — lib/refine and the static models
     share one noise source *)
  let ops = [ X86.Opcode.Add; X86.Opcode.Imul_rr; X86.Opcode.Div ] in
  List.iter
    (fun op ->
      let name = X86.Opcode.mnemonic op in
      Alcotest.(check int64) ("hash = hash_name " ^ name)
        (Models.Table_noise.hash_name ~seed:9L name)
        (Models.Table_noise.hash ~seed:9L op);
      Alcotest.(check int) ("latency = latency_named " ^ name)
        (Models.Table_noise.latency_named ~seed:9L ~fraction:0.5
           ~amplitude:0.6 name 7)
        (Models.Table_noise.latency ~seed:9L ~fraction:0.5 ~amplitude:0.6 op 7))
    ops;
  (* singleton port sets are never emptied *)
  Alcotest.(check int) "singleton port set untouched" 1
    (Models.Table_noise.drop_port_named ~seed:9L ~fraction:1.0 "p" 1)

(* --- perturbation ------------------------------------------------------- *)

let test_perturb_deterministic_and_valid () =
  let o1 = Perturb.overlay ~seed:3L ~edits:2 ivb
  and o2 = Perturb.overlay ~seed:3L ~edits:2 ivb in
  Alcotest.(check string) "same seed, same overlay" (Overlay.encode o1)
    (Overlay.encode o2);
  Alcotest.(check int) "edit count respected" 2 (List.length o1);
  let p = ivb.Uarch.Descriptor.profile in
  List.iter
    (fun (e : Overlay.edit) ->
      Alcotest.(check bool)
        ("perturbed " ^ Overlay.name e.Overlay.target ^ " differs")
        true
        (e.Overlay.value <> Overlay.get p e.Overlay.target);
      match e.Overlay.target with
      | Overlay.Lat _ ->
        Alcotest.(check bool) "latency stays >= 1" true (e.Overlay.value >= 1)
      | Overlay.Ports _ ->
        Alcotest.(check bool) "port set stays non-empty" true
          (e.Overlay.value <> 0
          && e.Overlay.value
             land lnot ((1 lsl ivb.Uarch.Descriptor.n_ports) - 1)
             = 0)
      | Overlay.Uops _ ->
        Alcotest.(check bool) "uop count toggles 1<->2" true
          (e.Overlay.value = 1 || e.Overlay.value = 2))
    o1;
  (* break = reference + truth overlay, and edits=1 chooses a prefix of
     the seed's ranking *)
  let broken, truth = Perturb.break ~seed:3L ~edits:2 ivb in
  Alcotest.(check string) "truth is the overlay" (Overlay.encode o1)
    (Overlay.encode truth);
  Alcotest.(check bool) "broken = reference + truth" true
    (broken.Uarch.Descriptor.profile = Overlay.apply p truth);
  let o_one = Perturb.overlay ~seed:3L ~edits:1 ivb in
  Alcotest.(check bool) "edits=1 is a prefix of edits=2" true
    (List.for_all
       (fun (e : Overlay.edit) ->
         List.exists (fun (f : Overlay.edit) -> f.Overlay.target = e.Overlay.target) o1)
       o_one);
  (* different seeds pick different breakage *)
  Alcotest.(check bool) "seeds decorrelate" true
    (List.exists
       (fun s ->
         Overlay.encode (Perturb.overlay ~seed:s ~edits:2 ivb)
         <> Overlay.encode o1)
       [ 1L; 2L; 4L; 5L ])

(* --- localization ------------------------------------------------------- *)

let test_localize_rank () =
  let corpus = [ imul_block; add_block ] in
  let n_ports = ivb.Uarch.Descriptor.n_ports in
  let deltas =
    [|
      { Localize.bd_error = 0.5; bd_port_delta = Array.make n_ports 0.0 };
      { Localize.bd_error = 0.0; bd_port_delta = Array.make n_ports 0.0 };
    |]
  in
  let ranked = Localize.rank ~cand:ivb ~corpus ~deltas in
  Alcotest.(check bool) "some suspects found" true (ranked <> []);
  let score t =
    match List.assoc_opt t ranked with Some s -> s | None -> 0.0
  in
  (* the erring block is the imul one: imul-specific entries must
     outrank the broad ALU entry the agreeing block also touches *)
  Alcotest.(check bool) "lat.imul outranks ports.alu" true
    (score (Overlay.Lat Overlay.L_imul) > score (Overlay.Ports Overlay.P_alu));
  (* no error, no suspects *)
  let quiet =
    Array.map
      (fun _ ->
        { Localize.bd_error = 0.0; bd_port_delta = Array.make n_ports 0.0 })
      deltas
  in
  Alcotest.(check int) "zero error ranks nothing" 0
    (List.length (Localize.rank ~cand:ivb ~corpus ~deltas:quiet));
  (* shape mismatch is a programming error *)
  (try
     ignore (Localize.rank ~cand:ivb ~corpus ~deltas:[| deltas.(0) |]);
     Alcotest.fail "length mismatch accepted"
   with Invalid_argument _ -> ())

let test_localize_precision () =
  let a = Overlay.Lat Overlay.L_imul
  and b = Overlay.Ports Overlay.P_alu
  and c = Overlay.Lat Overlay.L_div32 in
  Alcotest.(check (float 1e-9)) "perfect" 1.0
    (Localize.precision ~suspects:[ a; b ] ~truth:[ a ]);
  Alcotest.(check (float 1e-9)) "half" 0.5
    (Localize.precision ~suspects:[ a; b ] ~truth:[ a; c ]);
  Alcotest.(check (float 1e-9)) "miss" 0.0
    (Localize.precision ~suspects:[ b ] ~truth:[ c ]);
  Alcotest.(check (float 1e-9)) "empty truth" 1.0
    (Localize.precision ~suspects:[] ~truth:[])

(* --- the search driver -------------------------------------------------- *)

let refine_corpus =
  [
    X86.Parser.block_exn {|
      imul rax, rbx
      imul rbx, rcx
      add rcx, 1
    |};
    add_block;
    imul_block;
    Corpus.Paper_blocks.gzip_crc;
    Corpus.Paper_blocks.division;
    Corpus.Paper_blocks.zero_idiom;
  ]

let env = Harness.Environment.default

(* Recovery of a single perturbed latency: the truth is +3 on
   lat.imul, the corpus is imul-heavy, and exact recovery drives the
   error to 0 (simulation is deterministic), so converging below 1e-9
   means the reference profile itself was found. *)
let run_search ?jobs ?store ?record_step ?prior_steps () =
  let t = Overlay.Lat Overlay.L_imul in
  let truth =
    [
      {
        Overlay.target = t;
        value = Overlay.get ivb.Uarch.Descriptor.profile t + 3;
      };
    ]
  in
  let start = Overlay.apply ivb.Uarch.Descriptor.profile truth in
  Driver.run ?jobs ?store ?record_step ?prior_steps ~truth ~env
    ~reference:ivb ~start ~corpus:refine_corpus
    { Driver.target_error = 1e-9; max_evals = 40 }

let test_driver_recovers () =
  with_dir "bhive-refine-drv" (fun dir ->
      let store = Store.open_ dir in
      Fun.protect ~finally:(fun () -> Store.close store)
        (fun () ->
          let r = run_search ~jobs:1 ~store () in
          Alcotest.(check bool) "converged" true r.Driver.r_converged;
          Alcotest.(check bool) "reference profile recovered" true
            r.Driver.r_recovered;
          Alcotest.(check bool) "error driven to zero" true
            (r.Driver.r_final_error <= 1e-9);
          Alcotest.(check (option int)) "lat.imul restored"
            (Some (Overlay.get ivb.Uarch.Descriptor.profile
                     (Overlay.Lat Overlay.L_imul)))
            (Overlay.find r.Driver.r_overlay (Overlay.Lat Overlay.L_imul));
          Alcotest.(check bool) "search was incremental" true
            (r.Driver.r_hit_rate > 0.5);
          Alcotest.(check (option (float 1e-9))) "localizer precision"
            (Some 1.0) r.Driver.r_precision))

let step_fingerprint (s : Driver.step) =
  Printf.sprintf "%d|%s|%d|%016Lx|%b" s.Driver.st_eval
    (match s.Driver.st_target with
    | None -> "baseline"
    | Some t -> Overlay.name t)
    s.Driver.st_value
    (Int64.bits_of_float s.Driver.st_error)
    s.Driver.st_accepted

let test_driver_worker_independent () =
  let r1 = run_search ~jobs:1 () in
  let r2 = run_search ~jobs:2 () in
  Alcotest.(check (list string)) "step sequence identical across workers"
    (List.map step_fingerprint r1.Driver.r_steps)
    (List.map step_fingerprint r2.Driver.r_steps);
  Alcotest.(check string) "rendered report identical" (Driver.report r1)
    (Driver.report r2)

let test_driver_resume_replays () =
  (* first run records every step; a resumed run handed those records
     replays them without re-evaluating and lands on the same result *)
  let recorded = ref [] in
  let full = run_search ~jobs:1 ~record_step:(fun j -> recorded := j :: !recorded) () in
  let prior = List.rev !recorded in
  Alcotest.(check int) "every step was recorded" (List.length full.Driver.r_steps)
    (List.length prior);
  let resumed = run_search ~jobs:1 ~prior_steps:prior () in
  Alcotest.(check (list string)) "replayed steps match"
    (List.map step_fingerprint full.Driver.r_steps)
    (List.map step_fingerprint resumed.Driver.r_steps);
  Alcotest.(check bool) "all candidate steps replayed" true
    (List.for_all (fun s -> s.Driver.st_replayed) resumed.Driver.r_steps);
  Alcotest.(check string) "same report" (Driver.report full)
    (Driver.report resumed);
  (* a partial journal replays its prefix and searches on live *)
  let k = List.length prior / 2 in
  let partial = List.filteri (fun i _ -> i < k) prior in
  let half = run_search ~jobs:1 ~prior_steps:partial () in
  Alcotest.(check string) "prefix resume, same report" (Driver.report full)
    (Driver.report half);
  Alcotest.(check int) "exactly the prefix replayed" k
    (List.length (List.filter (fun s -> s.Driver.st_replayed) half.Driver.r_steps));
  (* a journal from a different search is refused, not silently used *)
  let mangled =
    List.map
      (fun j ->
        match j with
        | Json.Object fields ->
          Json.Object
            (List.map
               (function
                 | "value", Json.Number v -> ("value", Json.Number (v +. 100.))
                 | kv -> kv)
               fields)
        | j -> j)
      prior
  in
  match run_search ~jobs:1 ~prior_steps:mangled () with
  | _ -> Alcotest.fail "mangled journal accepted"
  | exception Failure msg ->
    Alcotest.(check bool) "refusal names the mismatch" true
      (contains ~needle:"does not match" msg)

(* --- store generation stats --------------------------------------------- *)

let test_store_gen_stats () =
  with_dir "bhive-refine-genstats" (fun dir ->
      let st = Store.open_ dir in
      Fun.protect ~finally:(fun () -> Store.close st)
        (fun () ->
          ignore (Store.put st ~key:"a" ~gen:"g1" "xx");
          ignore (Store.put st ~key:"b" ~gen:"g1" "yyyy");
          ignore (Store.put st ~key:"c" ~gen:"g2" "z");
          (match Store.gen_stats st with
          | [ g1; g2 ] ->
            Alcotest.(check string) "heaviest first" "g1" g1.Store.g_gen;
            Alcotest.(check int) "g1 live" 2 g1.Store.g_live;
            Alcotest.(check int) "g1 bytes" 6 g1.Store.g_bytes;
            Alcotest.(check string) "g2 second" "g2" g2.Store.g_gen;
            Alcotest.(check int) "g2 live" 1 g2.Store.g_live
          | l ->
            Alcotest.fail
              (Printf.sprintf "expected 2 generations, got %d" (List.length l)));
          (* superseding a key moves it between generations *)
          ignore (Store.put st ~key:"a" ~gen:"g2" "zz");
          (match Store.gen_stats st with
          | [ g2; g1 ] ->
            Alcotest.(check string) "g2 now heaviest" "g2" g2.Store.g_gen;
            Alcotest.(check int) "g2 live" 2 g2.Store.g_live;
            Alcotest.(check int) "g1 live" 1 g1.Store.g_live
          | _ -> Alcotest.fail "supersede did not regroup");
          (* a multi-generation store verifies clean *)
          let v = Store.verify st in
          Alcotest.(check int) "no corruption" 0 v.Store.v_corrupt;
          Alcotest.(check int) "no index mismatch" 0 v.Store.v_index_mismatched;
          Alcotest.(check int) "all live records scanned" 3 v.Store.v_live))

(* --- journal extras ----------------------------------------------------- *)

let test_journal_extras_roundtrip () =
  with_dir "bhive-refine-journal" (fun dir ->
      let path = Filename.concat dir "j.jsonl" in
      let step n =
        Json.Object
          [
            ("type", Json.String "refine_step");
            ("eval", Json.Number (float_of_int n));
            ("section", Json.String "refine-ivb");
          ]
      in
      (match Journal.open_ ~manifest_id:"m1" path with
      | Error m -> Alcotest.fail m
      | Ok j ->
        Journal.add_extra j (step 1);
        Journal.add_extra j (step 2);
        Journal.add_extra j
          (Json.Object
             [
               ("type", Json.String "refine_summary");
               ("final_error", Json.Number 0.001);
             ]);
        (* extras are visible before reopen, in append order *)
        Alcotest.(check int) "live extras" 3 (List.length (Journal.extras j));
        (* structural record types are refused *)
        (try
           Journal.add_extra j
             (Json.Object [ ("type", Json.String "section_end") ]);
           Alcotest.fail "structural type accepted"
         with Invalid_argument _ -> ());
        Journal.close j);
      match Journal.open_ ~manifest_id:"m1" path with
      | Error m -> Alcotest.fail m
      | Ok j ->
        let steps = Journal.extras ~type_:"refine_step" j in
        Alcotest.(check int) "steps survive reopen" 2 (List.length steps);
        (match steps with
        | first :: _ ->
          Alcotest.(check (option string)) "order preserved"
            (Some "1")
            (Option.map Json.to_string (Json.member "eval" first))
        | [] -> Alcotest.fail "no steps");
        Alcotest.(check int) "summary record too" 1
          (List.length (Journal.extras ~type_:"refine_summary" j));
        Journal.close j)

(* --- manifest: the refine section kind ---------------------------------- *)

(* Found from the test binary's own directory, like the manifest
   suite's examples. *)
let example =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../examples")
    "refine.manifest.json"
let read_file path = In_channel.with_open_text path In_channel.input_all

let pinned_refine_manifest_id =
  "bfda451ef9f16b15094456c006fb9c128a4e445578b744f39627e76bd514f53f"

let refine_kind ?(uarch = "ivb") ?(seed = 3L) ?(edits = 2)
    ?(target_error = 0.005) ?(max_evals = 60) () =
  Spec.Refine { uarch; seed; edits; target_error; max_evals }

let refine_spec ?uarch ?seed ?edits ?target_error ?max_evals () =
  Spec.make ~name:"refine" ~scale:2000 ~uarches:[ "ivb" ]
    ~sections:
      [ Spec.section (refine_kind ?uarch ?seed ?edits ?target_error ?max_evals ()) ]
    ()

let test_refine_example_manifest () =
  let text = read_file example in
  let spec =
    match Spec.of_string text with
    | Ok s -> s
    | Error m -> Alcotest.fail ("refine example does not parse: " ^ m)
  in
  Alcotest.(check string) "file is canonical" text (Spec.to_string spec);
  Alcotest.(check (result unit string)) "validates" (Ok ())
    (Spec.validate spec);
  (* same pin as the CI refine job greps *)
  Alcotest.(check string) "manifest id pinned" pinned_refine_manifest_id
    (Spec.id spec);
  match List.map (fun s -> s.Spec.kind) spec.Spec.sections with
  | [ Spec.Refine { uarch; seed; edits; target_error; max_evals } ] ->
    Alcotest.(check string) "uarch" "ivb" uarch;
    Alcotest.(check int64) "seed" 3L seed;
    Alcotest.(check int) "edits" 2 edits;
    Alcotest.(check (float 0.0)) "target_error" 0.005 target_error;
    Alcotest.(check int) "max_evals" 60 max_evals
  | _ -> Alcotest.fail "expected exactly one refine section"

let test_refine_spec_roundtrip () =
  let spec = refine_spec () in
  Alcotest.(check (result unit string)) "validates" (Ok ())
    (Spec.validate spec);
  match Spec.of_string (Spec.to_string spec) with
  | Error m -> Alcotest.fail ("round-trip parse failed: " ^ m)
  | Ok spec' ->
    Alcotest.(check string) "identical rendering" (Spec.to_string spec)
      (Spec.to_string spec');
    Alcotest.(check string) "identical id" (Spec.id spec) (Spec.id spec')

let test_refine_spec_validation () =
  let invalid what spec needle =
    match Spec.validate spec with
    | Ok () -> Alcotest.fail (what ^ ": accepted an invalid manifest")
    | Error msg ->
      Alcotest.(check bool)
        (what ^ ": message mentions the field (" ^ msg ^ ")")
        true
        (contains ~needle msg)
  in
  invalid "edits" (refine_spec ~edits:0 ()) "edits must be >= 1";
  invalid "target_error" (refine_spec ~target_error:0.0 ()) "target_error";
  invalid "max_evals" (refine_spec ~max_evals:0 ()) "max_evals";
  invalid "uarch outside manifest set" (refine_spec ~uarch:"hsw" ())
    "not in the manifest's uarch set"

(* --- bench-diff: gates on the refine object ----------------------------- *)

let base_summary ?schema ?refine () =
  Json.Object
    ((match schema with
     | Some v -> [ ("schema_version", Json.Number v) ]
     | None -> [])
    @ [
        ("scale", Json.Number 2000.);
        ("sections", Json.List []);
      ]
    @
    match refine with
    | Some (err, hit) ->
      [
        ( "refine",
          Json.Object
            [
              ("final_error", Json.Number err);
              ("store_hit_rate", Json.Number hit);
            ] );
      ]
    | None -> [])

let check_verdict what expected (report : Bench_diff.report) =
  let show = function
    | Bench_diff.Pass -> "pass"
    | Bench_diff.Warn -> "warn"
    | Bench_diff.Fail -> "fail"
    | Bench_diff.Mismatch -> "mismatch"
  in
  Alcotest.(check string) what (show expected) (show report.Bench_diff.verdict)

let test_strip_top_allowlist () =
  let s = base_summary ~schema:9.0 ~refine:(0.001, 0.9) () in
  let stripped = Bench_diff.strip_top s in
  Alcotest.(check bool) "unknown top-level object is volatile" true
    (Json.member "refine" stripped = None);
  Alcotest.(check bool) "identity fields survive" true
    (Json.member "schema_version" stripped <> None
    && Json.member "scale" stripped <> None
    && Json.member "sections" stripped <> None);
  (* two summaries differing only in the refine object are identical *)
  let report =
    Bench_diff.compare_summaries ~identical:true
      ~baseline:(base_summary ~schema:9.0 ())
      ~current:s ()
  in
  check_verdict "refine object volatile for identity" Bench_diff.Pass report

let test_refine_gates () =
  let max_error = "refine.final_error <= 0.005"
  and min_hit_rate = "refine.store_hit_rate >= 0.5" in
  let gate gates current =
    let gates =
      List.map (fun g -> Result.get_ok (Bench_diff.parse_gate g)) gates
    in
    Bench_diff.compare_summaries ~gates
      ~baseline:(base_summary ~schema:9.0 ~refine:(0.001, 0.9) ())
      ~current ()
  in
  check_verdict "within both floors" Bench_diff.Pass
    (gate [ max_error; min_hit_rate ]
       (base_summary ~schema:9.0 ~refine:(0.001, 0.9) ()));
  check_verdict "error above ceiling fails" Bench_diff.Fail
    (gate [ max_error ] (base_summary ~schema:9.0 ~refine:(0.01, 0.9) ()));
  check_verdict "hit rate below floor fails" Bench_diff.Fail
    (gate [ min_hit_rate ] (base_summary ~schema:9.0 ~refine:(0.001, 0.2) ()));
  check_verdict "exactly at the ceiling passes" Bench_diff.Pass
    (gate [ max_error ] (base_summary ~schema:9.0 ~refine:(0.005, 0.9) ()));
  (* a summary that predates schema v9 has no refine object either *)
  let report = gate [ max_error ] (base_summary ~schema:8.0 ()) in
  check_verdict "summary without a refine object fails" Bench_diff.Fail report;
  Alcotest.(check bool) "failure names the missing path" true
    (List.exists
       (fun (f : Bench_diff.finding) ->
         f.Bench_diff.metric = "refine.final_error"
         && contains ~needle:"missing" f.Bench_diff.detail)
       report.Bench_diff.findings);
  check_verdict "v9 summary without a refine object fails" Bench_diff.Fail
    (gate [ max_error ] (base_summary ~schema:9.0 ()));
  (* without the gates nothing is gated *)
  check_verdict "no flags, no gate" Bench_diff.Pass
    (gate [] (base_summary ~schema:8.0 ()))

let suite =
  [
    Alcotest.test_case "overlay codes are total and stable" `Quick
      test_overlay_codes_total;
    Alcotest.test_case "overlay canonicalisation" `Quick
      test_overlay_canonical;
    Alcotest.test_case "overlay apply/undo round-trip" `Quick
      test_overlay_apply_inverts;
    Alcotest.test_case "overlay golden encoding and digests" `Quick
      test_overlay_golden_digests;
    Alcotest.test_case "overlay targets visible to generations" `Quick
      test_overlay_visible_to_generations;
    Alcotest.test_case "block generations are slice-selective" `Quick
      test_block_generation_selective;
    Alcotest.test_case "unrelated edits keep store records warm" `Quick
      test_block_generation_store_warm;
    Alcotest.test_case "table noise is deterministic" `Quick
      test_table_noise_deterministic;
    Alcotest.test_case "table noise named/opcode equivalence" `Quick
      test_table_noise_named_opcode_equivalence;
    Alcotest.test_case "perturbation determinism and validity" `Quick
      test_perturb_deterministic_and_valid;
    Alcotest.test_case "localizer ranks narrow suspects first" `Quick
      test_localize_rank;
    Alcotest.test_case "localization precision" `Quick
      test_localize_precision;
    Alcotest.test_case "driver recovers a perturbed latency" `Quick
      test_driver_recovers;
    Alcotest.test_case "driver is worker-count independent" `Quick
      test_driver_worker_independent;
    Alcotest.test_case "driver resume replays the journal" `Quick
      test_driver_resume_replays;
    Alcotest.test_case "store per-generation stats" `Quick
      test_store_gen_stats;
    Alcotest.test_case "journal extras round-trip" `Quick
      test_journal_extras_roundtrip;
    Alcotest.test_case "refine example manifest pinned" `Quick
      test_refine_example_manifest;
    Alcotest.test_case "refine spec round-trips" `Quick
      test_refine_spec_roundtrip;
    Alcotest.test_case "refine spec validation" `Quick
      test_refine_spec_validation;
    Alcotest.test_case "strip_top allowlists identity fields" `Quick
      test_strip_top_allowlist;
    Alcotest.test_case "bench-diff refine gates" `Quick test_refine_gates;
  ]
