(** Instruction characterisation: measured latency, reciprocal
    throughput, and micro-op count per instruction form, per
    microarchitecture — the per-instruction tables (Agner Fog,
    uops.info, llvm-exegesis) rebuilt on top of the block profiler. *)



type result = {
  form : Benchgen.form;
  latency : float option;  (** cycles; None for unchainable forms *)
  rthroughput : float;  (** reciprocal throughput, cycles/instruction *)
  uops : float;  (** unfused micro-ops per instruction *)
}

(* Environment tuned for microbenchmarks: naive unrolling is fine (the
   blocks are tiny) and misalignment never occurs (aligned slots). *)
let env = { Harness.Environment.default with unroll = Harness.Environment.Naive 100 }

(* Microbenchmarks route through the engine, gaining its memoisation
   and fault supervision. *)
let measure_block ~engine (uarch : Uarch.Descriptor.t) block :
    (float * float) option =
  match Engine.profile engine env uarch block with
  | Ok p when p.accepted ->
    let c = p.large.counters in
    let uops_per_inst =
      float_of_int c.uops /. float_of_int (max 1 c.instructions)
    in
    Some (p.throughput, uops_per_inst)
  | _ -> None

(** Characterise one instruction form. *)
let characterize ~engine (uarch : Uarch.Descriptor.t) (form : Benchgen.form) :
    result option =
  (* latency: a single chained instance per iteration; the steady-state
     cycles/iteration of the unrolled chain is the latency *)
  let latency =
    match Benchgen.latency_block form ~n:1 with
    | None -> None
    | Some block -> Option.map fst (measure_block ~engine uarch block)
  in
  (* throughput: as many disjoint copies as the register pool allows *)
  let copies = Benchgen.default_copies form in
  let tp_block = Benchgen.throughput_block form ~copies in
  match measure_block ~engine uarch tp_block with
  | None -> None
  | Some (cycles_per_iter, uops) ->
    Some
      {
        form;
        latency;
        rthroughput = cycles_per_iter /. float_of_int copies;
        uops;
      }

(** The full standard table for one microarchitecture. *)
let table ~engine (uarch : Uarch.Descriptor.t) : result list =
  List.filter_map (characterize ~engine uarch) Benchgen.standard_forms

let pp_table fmt (rows : result list) =
  Format.fprintf fmt "%-16s %-9s %-9s %s@." "form" "latency" "rthroughput" "uops";
  List.iter
    (fun (r : result) ->
      Format.fprintf fmt "%-16s %-9s %-9.2f %.1f@."
        (Benchgen.form_name r.form)
        (match r.latency with Some l -> Printf.sprintf "%.1f" l | None -> "-")
        r.rthroughput r.uops)
    rows
