(** Complete microarchitecture description: execution profile plus the
    pipeline and memory-system parameters the cycle-level simulator
    needs. *)

type t = {
  name : string;
  short : string;  (** "ivb" / "hsw" / "skl" *)
  profile : Profile.t;
  rename_width : int;  (** fused-domain uops renamed per cycle *)
  retire_width : int;
  rob_size : int;
  scheduler_size : int;
  n_ports : int;
  icache_miss_penalty : int;  (** cycles per L1I line miss *)
  l1d_miss_penalty : int;  (** cycles per L1D line miss (L2 hit) *)
  l2_miss_penalty : int;  (** additional cycles when the L2 also misses *)
  subnormal_assist_cycles : int;
      (** microcode assist cost when an FP op touches subnormals with
          gradual underflow enabled *)
  misaligned_extra_cycles : int;
      (** extra cycles for a load/store crossing a cache line *)
  supports_avx2 : bool;
}

(** The preprocessed flat execution tables for this descriptor
    (memoised per profile; see {!Flat}). *)
let flat t = Flat.of_profile t.profile ~n_ports:t.n_ports

let decompose t inst = Flat.decompose (flat t) inst

let port_combinations t inst = Profile.port_combinations t.profile inst
