(** Architectural machine state: general-purpose registers, vector
    registers, RFLAGS, RIP and the MXCSR bits relevant to profiling. *)

type flags = {
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable of_ : bool;
  mutable pf : bool;
  mutable af : bool;
}

type t = {
  gpr : Bytes.t;
      (** 16 roots x 8 bytes, little-endian: root [g] is at byte
          [8 * Reg.gpr_index g] *)
  vec : Bytes.t;  (** 16 vector roots x 32 bytes *)
  flags : flags;
  mutable rip : int64;
  mutable ftz : bool;
      (** MXCSR FTZ+DAZ: flush subnormals to zero (what BHive sets to
          disable gradual underflow during measurement) *)
}

val create : unit -> t
val copy : t -> t
val copy_into : src:t -> dst:t -> unit

val get_gpr64 : t -> X86.Reg.gpr -> int64

(** Read a register at its own width, zero-extended to 64 bits. Raises
    for vector registers (use [get_vec]). *)
val get_reg : t -> X86.Reg.t -> int64

(** Write with x86-64 merge rules: 8/16-bit writes merge, 32-bit writes
    zero the upper half, 64-bit writes replace. *)
val set_reg : t -> X86.Reg.t -> int64 -> unit

(** Raw byte contents of a vector register (16 or 32 bytes). *)
val get_vec : t -> X86.Reg.t -> bytes

val set_vec : t -> X86.Reg.t -> bytes -> unit

val set_vec_u64 : t -> int -> lane:int -> int64 -> unit

(** BHive initialisation: every GPR holds [value], vector registers hold
    the repeating 32-bit pattern, flags cleared. *)
val init_constant : t -> int64 -> unit
