(** The measured dataset: every successfully profiled block of a corpus
    on one microarchitecture, with its ground-truth throughput. *)

type entry = {
  block : Corpus.Block.t;
  throughput : float;
  faults : int;  (** pages the monitor had to map *)
  unroll_large : int;
  unroll_small : int;
}

type failure = {
  fail_block : Corpus.Block.t;
  fail_env : Harness.Environment.t;
  fail_uarch : Uarch.Descriptor.t;
  fail_reason : Harness.Profiler.failure;
}

type t = {
  uarch : Uarch.Descriptor.t;
  env : Harness.Environment.t;
  entries : entry list;
  n_input : int;
  n_avx2_excluded : int;
  failures : failure list;
  rejected : (Corpus.Block.t * Harness.Profiler.reject_reason) list;
  quarantined : (Corpus.Block.t * Engine.quarantine) list;
}

(* Profile every block of [blocks] on [uarch] as one engine batch;
   blocks using AVX2-class instructions are excluded on
   microarchitectures without AVX2 support, as in the paper's Ivy
   Bridge validation. The engine aggregates in submission order, so
   entries/failures/rejected keep corpus order for any worker count. *)
let build ?(env = Harness.Environment.default) ~engine
    (uarch : Uarch.Descriptor.t) (blocks : Corpus.Block.t list) : t =
  let n_avx2 = ref 0 in
  let considered =
    List.filter
      (fun (b : Corpus.Block.t) ->
        if (not uarch.supports_avx2) && Corpus.Block.uses_avx2 b then begin
          incr n_avx2;
          false
        end
        else true)
      blocks
  in
  let { Engine.outcomes; _ } =
    Engine.run_batch engine
      (List.map
         (fun (b : Corpus.Block.t) -> { Engine.env; uarch; block = b.insts })
         considered)
  in
  let entries = ref [] in
  let failures = ref [] in
  let rejected = ref [] in
  let quarantined = ref [] in
  List.iteri
    (fun i (b : Corpus.Block.t) ->
      match outcomes.(i) with
      | Ok (p : Harness.Profiler.profile) when p.accepted ->
        entries :=
          {
            block = b;
            throughput = p.throughput;
            faults = p.large.faults;
            unroll_large = p.factors.large;
            unroll_small = p.factors.small;
          }
          :: !entries
      | Ok p ->
        let reason =
          Option.value p.reject ~default:Harness.Profiler.Unstable
        in
        rejected := (b, reason) :: !rejected
      | Error (Engine.Profiler_failure f) ->
        failures :=
          { fail_block = b; fail_env = env; fail_uarch = uarch; fail_reason = f }
          :: !failures
      | Error (Engine.Quarantined q) -> quarantined := (b, q) :: !quarantined)
    considered;
  {
    uarch;
    env;
    entries = List.rev !entries;
    (* the batch result carries the measured-job count; adding the
       exclusions back recovers the corpus size without re-walking the
       input list *)
    n_input = Array.length outcomes + !n_avx2;
    n_avx2_excluded = !n_avx2;
    failures = List.rev !failures;
    rejected = List.rev !rejected;
    quarantined = List.rev !quarantined;
  }

let size t = List.length t.entries

let profiled_fraction t =
  let considered = t.n_input - t.n_avx2_excluded in
  if considered = 0 then 0.0
  else float_of_int (size t) /. float_of_int considered

(* Deterministic train/evaluation split by block-id hash (used to train
   the learned model on data it is not evaluated on). *)
let split ~train_fraction t =
  let train = ref [] and eval = ref [] in
  List.iter
    (fun e ->
      let h = Bstats.Rng.seed_of_string e.block.id in
      let u =
        Int64.to_float (Int64.logand h 0xFFFFFFL) /. 16777216.0
      in
      if u < train_fraction then train := e :: !train else eval := e :: !eval)
    t.entries;
  (List.rev !train, List.rev !eval)
