(** Port-mapping inference in the style of Abel and Reineke (uops.info),
    whose reverse-engineered instruction-to-port mappings the paper uses
    to featurise basic blocks.

    The technique: saturate a candidate set of execution ports with
    "blocker" instructions known to issue only there, add one instance of
    the target instruction, and compare against the blocker-only
    baseline. If the target's micro-op can only execute inside the
    blocked set, the measurement grows by its full cost; if it has a port
    outside the set, it slips into the idle capacity and the delta stays
    near zero. The inferred port combination is the smallest blocked set
    that the target cannot escape. *)

open X86
open X86.Builder

(* Single-port blocker generators for the compute ports shared by all
   three modelled microarchitectures: p0 (vector shifts), p1 (integer
   multiply), p5 (shuffles). Each instance uses its own registers. *)
let blocker_for_port port k =
  match port with
  | 0 -> mk (Opcode.Psll Opcode.I32) [ r (Reg.Xmm (k mod 12)); i 3 ]
  | 1 ->
    let regs = Reg.[ rax; rcx; rdx; rsi; rdi; r8; r9; r10; r11 ] in
    let dst = List.nth regs (k mod List.length regs) in
    imul3 (r dst) (r Reg.rbx) (i 7)
  | 5 ->
    mk Opcode.Pshufd [ r (Reg.Xmm (k mod 12)); r (Reg.Xmm ((k + 3) mod 12)); i 0x1b ]
  | p -> invalid_arg (Printf.sprintf "Portmap: no single-port blocker for p%d" p)

let supported_ports = [ 0; 1; 5 ]

(* Candidate combinations over the supported ports, smallest first. *)
let candidate_combos : Uarch.Port.set list =
  Uarch.Port.
    [ p0; p1; p5; p01; p05; p15; p015 ]

let blockers_per_port = 4

(* The measurement block: one target instance plus [blockers_per_port]
   blockers for every port in the combination. *)
let probe_block (target : Inst.t) (combo : Uarch.Port.set) : Inst.t list =
  let blockers =
    List.concat_map
      (fun port -> List.init blockers_per_port (blocker_for_port port))
      (Uarch.Port.to_list combo)
  in
  target :: blockers

let baseline_block (combo : Uarch.Port.set) : Inst.t list =
  List.concat_map
    (fun port -> List.init blockers_per_port (blocker_for_port port))
    (Uarch.Port.to_list combo)

let env = { Harness.Environment.default with unroll = Harness.Environment.Naive 100 }

let throughput ~engine uarch block =
  match Engine.profile engine env uarch block with
  | Ok p -> Some p.Harness.Profiler.throughput
  | Error _ -> None

(** Measured slowdown caused by adding the target to a saturated
    combination. *)
let pressure_delta ~engine (uarch : Uarch.Descriptor.t) (target : Inst.t)
    (combo : Uarch.Port.set) : float option =
  match
    ( throughput ~engine uarch (probe_block target combo),
      throughput ~engine uarch (baseline_block combo) )
  with
  | Some combined, Some baseline -> Some (combined -. baseline)
  | _ -> None

(** Infer the port combination of [target]'s execution micro-op: the
    smallest candidate set whose saturation the target cannot escape.
    [None] when no candidate confines it (its ports lie outside the
    supported blockers, e.g. memory ports). *)
let infer ~engine (uarch : Uarch.Descriptor.t) (target : Inst.t) :
    Uarch.Port.set option =
  let confined =
    List.filter
      (fun combo ->
        (* a confined micro-op adds 1 cycle spread over the combo's
           ports; an escaping one adds (nearly) nothing *)
        let threshold = 0.8 /. float_of_int (Uarch.Port.cardinal combo) in
        match pressure_delta ~engine uarch target combo with
        | Some delta -> delta >= threshold
        | None -> false)
      candidate_combos
  in
  (* the smallest confining set is the port combination *)
  match
    List.sort
      (fun a b -> compare (Uarch.Port.cardinal a) (Uarch.Port.cardinal b))
      confined
  with
  | smallest :: _ -> Some smallest
  | [] -> None

(* The inference report for a battery of forms. *)
type entry = {
  name : string;
  inferred : Uarch.Port.set option;
  expected : Uarch.Port.set option;  (** from the uarch table, for comparison *)
}

let expected_ports (uarch : Uarch.Descriptor.t) (target : Inst.t) =
  let d = Uarch.Descriptor.decompose uarch target in
  List.find_map
    (fun (u : Uarch.Uop.t) ->
      if u.kind = Uarch.Uop.Exec then Some u.ports else None)
    d.uops

let survey ~engine (uarch : Uarch.Descriptor.t)
    (targets : (string * Inst.t) list) : entry list =
  List.map
    (fun (name, target) ->
      {
        name;
        inferred = infer ~engine uarch target;
        expected = expected_ports uarch target;
      })
    targets

(* Targets use non-accumulating (AVX three-operand) forms where they
   exist, so the probe measures port pressure rather than the target's
   own loop-carried latency. *)
let standard_targets : (string * Inst.t) list =
  [
    ("addps", vec3 (Opcode.Fadd Opcode.Ps) (r (Reg.Xmm 13)) (r (Reg.Xmm 14)) (r (Reg.Xmm 15)));
    ("mulps", vec3 (Opcode.Fmul Opcode.Ps) (r (Reg.Xmm 13)) (r (Reg.Xmm 14)) (r (Reg.Xmm 15)));
    ("paddd", vec3 (Opcode.Padd Opcode.I32) (r (Reg.Xmm 13)) (r (Reg.Xmm 14)) (r (Reg.Xmm 15)));
    ("pshufb", vec3 Opcode.Pshufb (r (Reg.Xmm 13)) (r (Reg.Xmm 14)) (r (Reg.Xmm 15)));
    ("imul", imul3 (r Reg.r12) (r Reg.r13) (i 7));
    ("popcnt", popcnt (r Reg.r12) (r Reg.r13));
    ("pslld", mk (Opcode.Psll Opcode.I32) [ r (Reg.Xmm 13); i 1 ]);
  ]

let pp_survey fmt entries =
  Format.fprintf fmt "%-10s %-10s %s@." "form" "inferred" "table";
  List.iter
    (fun e ->
      Format.fprintf fmt "%-10s %-10s %s@." e.name
        (match e.inferred with Some s -> Uarch.Port.name s | None -> "?")
        (match e.expected with Some s -> Uarch.Port.name s | None -> "?"))
    entries
