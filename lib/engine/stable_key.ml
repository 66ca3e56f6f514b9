(* Stable content digests for engine jobs and store generations.

   The previous fingerprint hashed [Marshal] output, whose bytes depend
   on the OCaml release and word size — fine for an in-memory memo,
   useless as a persistent disk key. Here every input is written
   field-by-field through [Store.Codec]'s fixed-width little-endian
   encoders and digested with SHA-256, so the same job produces the
   same key on any host, any domain, any OCaml.

   Two digests with different lifetimes:

   - the *job* fingerprint identifies WHAT is measured: encoded block
     bytes + measurement environment + uarch short name. It is the
     store key (and the memo key, and the faultsim draw seed).

   - the *generation* fingerprint identifies HOW it is measured: the
     full uarch descriptor tables + the profiler's algorithm version.
     It is stored alongside each record; when a latency table entry is
     edited, only records written under that uarch's old generation go
     stale, and a warm run re-profiles exactly those.

   Any change to these encoders is a format change: bump the version
   strings so old stores invalidate instead of mis-matching. *)

module Codec = Store.Codec

let job_version = "bhive-job-v1"
let generation_version = "bhive-gen-v1"

let add_mapping buf (m : Harness.Environment.mapping_mode) =
  Codec.u8 buf
    (match m with
    | No_mapping -> 0
    | Fresh_pages -> 1
    | Single_physical_page -> 2)

let add_unroll buf (u : Harness.Environment.unroll_strategy) =
  match u with
  | Naive n ->
    Codec.u8 buf 0;
    Codec.int buf n
  | Two_point { large; small } ->
    Codec.u8 buf 1;
    Codec.int buf large;
    Codec.int buf small
  | Adaptive_two_point { code_budget_bytes } ->
    Codec.u8 buf 2;
    Codec.int buf code_budget_bytes

let add_env buf (e : Harness.Environment.t) =
  add_mapping buf e.mapping;
  add_unroll buf e.unroll;
  Codec.int32 buf e.fill_value;
  Codec.int buf e.max_faults;
  Codec.int buf e.timings;
  Codec.int buf e.min_clean;
  Codec.bool buf e.disable_underflow;
  Codec.bool buf e.drop_misaligned;
  Codec.float buf e.context_switch_rate;
  Codec.i64 buf e.noise_seed

(* [Port.set] is a plain bit mask (int). *)
let add_ports buf (p : Uarch.Port.set) = Codec.int buf p

let add_profile buf (p : Uarch.Profile.t) =
  Codec.str buf p.name;
  add_ports buf p.alu;
  add_ports buf p.shift;
  add_ports buf p.lea_simple;
  add_ports buf p.lea_complex;
  Codec.int buf p.lea_complex_latency;
  add_ports buf p.imul;
  Codec.int buf p.imul_latency;
  add_ports buf p.div;
  Codec.int buf p.div32_latency;
  Codec.int buf p.div64_latency;
  Codec.int buf p.adc_uops;
  Codec.int buf p.cmov_uops;
  add_ports buf p.bit_scan;
  Codec.int buf p.bit_scan_latency;
  add_ports buf p.load;
  Codec.int buf p.load_latency;
  Codec.int buf p.load_bytes;
  add_ports buf p.store_addr;
  add_ports buf p.store_data;
  Codec.int buf p.store_bytes;
  add_ports buf p.vec_alu;
  add_ports buf p.vec_shift;
  add_ports buf p.vec_shuffle;
  add_ports buf p.vec_imul;
  Codec.int buf p.vec_imul_latency;
  Codec.int buf p.pmulld_uops;
  add_ports buf p.fp_add;
  Codec.int buf p.fp_add_latency;
  add_ports buf p.fp_mul;
  Codec.int buf p.fp_mul_latency;
  Codec.option buf add_ports p.fp_fma;
  Codec.int buf p.fp_fma_latency;
  add_ports buf p.fp_div;
  Codec.int buf p.fp_div_latency_s;
  Codec.int buf p.fp_div_latency_d;
  Codec.int buf p.fp_div_ymm_factor;
  add_ports buf p.fp_mov;
  add_ports buf p.cvt;
  Codec.int buf p.cvt_latency;
  add_ports buf p.movmsk;
  Codec.int buf p.movmsk_latency;
  add_ports buf p.xfer;
  Codec.int buf p.xfer_latency;
  Codec.bool buf p.zero_idiom_elim;
  Codec.bool buf p.move_elim;
  Codec.bool buf p.micro_fusion

let add_descriptor buf (d : Uarch.Descriptor.t) =
  Codec.str buf d.name;
  Codec.str buf d.short;
  add_profile buf d.profile;
  Codec.int buf d.rename_width;
  Codec.int buf d.retire_width;
  Codec.int buf d.rob_size;
  Codec.int buf d.scheduler_size;
  Codec.int buf d.n_ports;
  Codec.int buf d.icache_miss_penalty;
  Codec.int buf d.l1d_miss_penalty;
  Codec.int buf d.l2_miss_penalty;
  Codec.int buf d.subnormal_assist_cycles;
  Codec.int buf d.misaligned_extra_cycles;
  Codec.bool buf d.supports_avx2

(** 64-char hex digest of the measurement environment alone. *)
let env_fingerprint (e : Harness.Environment.t) =
  let buf = Buffer.create 64 in
  Codec.str buf job_version;
  add_env buf e;
  Store.Sha256.hex (Buffer.contents buf)

(** 64-char hex digest identifying WHAT is measured: canonical machine
    encoding of the block + the environment + the uarch identity. *)
let job_fingerprint ~(env : Harness.Environment.t) ~uarch_short
    (block : X86.Inst.t list) =
  let buf = Buffer.create 256 in
  Codec.str buf job_version;
  add_env buf env;
  Codec.str buf uarch_short;
  Codec.bytes buf (X86.Encoder.encode_block block);
  Store.Sha256.hex (Buffer.contents buf)

(** The key of a job's page mappings in {!Harness.Mapping_memo}: the
    job fingerprint's inputs without the uarch — the canonical encoding
    of the environment and the block's machine bytes, undigested. *)
let mapping_key ~(env : Harness.Environment.t) (block : X86.Inst.t list) =
  let buf = Buffer.create 256 in
  add_env buf env;
  Codec.bytes buf (X86.Encoder.encode_block block);
  Buffer.contents buf

(** 64-char hex digest identifying HOW it is measured: descriptor
    tables + profiler algorithm version. Editing one latency entry
    changes exactly that uarch's generation. *)
let generation (d : Uarch.Descriptor.t) =
  let buf = Buffer.create 512 in
  Codec.str buf generation_version;
  Codec.str buf Harness.Profiler.algorithm_version;
  add_descriptor buf d;
  Store.Sha256.hex (Buffer.contents buf)

(** 64-char hex digest of the preprocessed flat execution tables
    ({!Uarch.Flat}) a descriptor simulates with. The tables are a pure
    function of the descriptor, so this digest is NOT part of any store
    key — [generation] already covers invalidation. It exists to be
    pinned by golden tests: a change here without a [generation] change
    means table flattening itself altered simulation inputs. *)
let flat_digest (d : Uarch.Descriptor.t) =
  Store.Sha256.hex (Uarch.Flat.encode (Uarch.Descriptor.flat d))

(* --- block-sensitive generations (descriptor refinement) --------------- *)

let block_generation_version = "bhive-gen-block-v1"

(** 64-char hex digest identifying HOW one specific block is measured:
    the slice of the descriptor tables its opcode classes actually
    decode with, rather than the whole descriptor. Two descriptors that
    differ only in entries a block never reads give the block the same
    generation, so a store warmed under one stays hot under the other —
    this is what makes each refinement candidate evaluation incremental.
    Soundness direction: the digest must change whenever the block's
    simulation could change; hashing too much only costs warm hits. *)
let block_generation (d : Uarch.Descriptor.t) (block : X86.Inst.t list) =
  let p = d.profile in
  let f = Uarch.Descriptor.flat d in
  let buf = Buffer.create 512 in
  Codec.str buf block_generation_version;
  Codec.str buf Harness.Profiler.algorithm_version;
  (* machine parameters outside the execution tables; identity names are
     deliberately excluded — same tables, same simulation *)
  Codec.int buf d.rename_width;
  Codec.int buf d.retire_width;
  Codec.int buf d.rob_size;
  Codec.int buf d.scheduler_size;
  Codec.int buf d.n_ports;
  Codec.int buf d.icache_miss_penalty;
  Codec.int buf d.l1d_miss_penalty;
  Codec.int buf d.l2_miss_penalty;
  Codec.int buf d.subnormal_assist_cycles;
  Codec.int buf d.misaligned_extra_cycles;
  Codec.bool buf d.supports_avx2;
  (* decomposition-wide profile switches *)
  Codec.bool buf p.zero_idiom_elim;
  Codec.bool buf p.move_elim;
  Codec.bool buf p.micro_fusion;
  Codec.int buf f.port_mask;
  (* the load/store table section, only when the block touches memory
     (implicit push/pop accesses included) *)
  if List.exists (fun i -> X86.Inst.mem_accesses i <> []) block then
    Codec.str buf (Uarch.Flat.encode_memory f);
  (* per distinct opcode class, the exact table slice it decodes with *)
  let ks =
    List.sort_uniq compare
      (List.map (fun (i : X86.Inst.t) -> Uarch.Flat.class_of i.opcode) block)
  in
  List.iter
    (fun k ->
      Codec.int buf k;
      if k < 0 then add_profile buf p (* unmodelled opcode: whole profile *)
      else begin
        Codec.str buf (Uarch.Flat.encode_class f k);
        if f.variant.(k) then
          Codec.str buf
            (Uarch.Overlay.variant_signature p Uarch.Flat.classes.(k));
        if f.int_div.(k) then Codec.str buf (Uarch.Flat.encode_int_div f)
      end)
    ks;
  Store.Sha256.hex (Buffer.contents buf)

(** 64-char hex digest of a canonical overlay encoding — the identity
    of a refinement candidate's patch, journaled with every search step. *)
let overlay_digest (o : Uarch.Overlay.t) = Store.Sha256.hex (Uarch.Overlay.encode o)
