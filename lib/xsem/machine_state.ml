(** Architectural machine state: general-purpose registers, vector
    registers, RFLAGS, RIP and the MXCSR bits relevant to profiling. *)

open X86

type flags = {
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable of_ : bool;
  mutable pf : bool;
  mutable af : bool;
}

type t = {
  gpr : Bytes.t;  (** 16 roots x 8 bytes, little-endian *)
  vec : Bytes.t;  (** 16 vector roots x 32 bytes *)
  flags : flags;
  mutable rip : int64;
  mutable ftz : bool;
      (** MXCSR FTZ+DAZ: flush subnormal inputs/outputs to zero. BHive
          sets this to disable gradual underflow during measurement. *)
}

let create () =
  {
    gpr = Bytes.make (16 * 8) '\000';
    vec = Bytes.make (16 * 32) '\000';
    flags = { cf = false; zf = false; sf = false; of_ = false; pf = false; af = false };
    rip = 0L;
    ftz = false;
  }

let copy t =
  {
    gpr = Bytes.copy t.gpr;
    vec = Bytes.copy t.vec;
    flags = { t.flags with cf = t.flags.cf };
    rip = t.rip;
    ftz = t.ftz;
  }

let copy_into ~src ~dst =
  Bytes.blit src.gpr 0 dst.gpr 0 (16 * 8);
  Bytes.blit src.vec 0 dst.vec 0 (16 * 32);
  dst.flags.cf <- src.flags.cf;
  dst.flags.zf <- src.flags.zf;
  dst.flags.sf <- src.flags.sf;
  dst.flags.of_ <- src.flags.of_;
  dst.flags.pf <- src.flags.pf;
  dst.flags.af <- src.flags.af;
  dst.rip <- src.rip;
  dst.ftz <- src.ftz

(* --- GPR access ----------------------------------------------------- *)

(* Root [g]'s bytes are [gpr_offset g] to [gpr_offset g + 7]. *)
let gpr_offset g = 8 * Reg.gpr_index g

let get_gpr64 t g = Bytes.get_int64_le t.gpr (gpr_offset g)

let get_reg t (r : Reg.t) : int64 =
  match r with
  | Reg.Gpr (g, Width.Q) -> Bytes.get_int64_le t.gpr (gpr_offset g)
  | Reg.Gpr (g, Width.D) ->
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.gpr (gpr_offset g))) 0xFFFFFFFFL
  | Reg.Gpr (g, Width.W) -> Int64.of_int (Bytes.get_uint16_le t.gpr (gpr_offset g))
  | Reg.Gpr (g, Width.B) -> Int64.of_int (Bytes.get_uint8 t.gpr (gpr_offset g))
  | Reg.Gpr8h g -> Int64.of_int (Bytes.get_uint8 t.gpr (gpr_offset g + 1))
  | Reg.Rip -> t.rip
  | Reg.Xmm _ | Reg.Ymm _ ->
    invalid_arg "Machine_state.get_reg: vector register (use get_vec)"

(* x86-64 merge rules: 8/16-bit writes merge into the old value, 32-bit
   writes zero the upper half, 64-bit writes replace. In the byte file
   these are a byte, word or quad store. *)
let set_reg t (r : Reg.t) v =
  match r with
  | Reg.Gpr (g, Width.Q) -> Bytes.set_int64_le t.gpr (gpr_offset g) v
  | Reg.Gpr (g, Width.D) ->
    Bytes.set_int64_le t.gpr (gpr_offset g) (Int64.logand v 0xFFFFFFFFL)
  | Reg.Gpr (g, Width.W) ->
    Bytes.set_uint16_le t.gpr (gpr_offset g) (Int64.to_int v land 0xFFFF)
  | Reg.Gpr (g, Width.B) -> Bytes.set_uint8 t.gpr (gpr_offset g) (Int64.to_int v land 0xFF)
  | Reg.Gpr8h g -> Bytes.set_uint8 t.gpr (gpr_offset g + 1) (Int64.to_int v land 0xFF)
  | Reg.Rip -> t.rip <- v
  | Reg.Xmm _ | Reg.Ymm _ ->
    invalid_arg "Machine_state.set_reg: vector register (use set_vec)"

(* --- Vector register access ----------------------------------------- *)

let vec_offset i = i * 32

let vec_index = function
  | Reg.Xmm i | Reg.Ymm i -> i
  | r -> invalid_arg ("Machine_state.vec_index: " ^ Reg.name r)

(* Read the full byte contents of a vector register (16 or 32 bytes). *)
let get_vec t (r : Reg.t) : bytes =
  let i = vec_index r in
  let n = Reg.byte_size r in
  Bytes.sub t.vec (vec_offset i) n

let set_vec t (r : Reg.t) (b : bytes) =
  let i = vec_index r in
  let n = Reg.byte_size r in
  if Bytes.length b <> n then
    invalid_arg
      (Printf.sprintf "Machine_state.set_vec: %d bytes into %s" (Bytes.length b)
         (Reg.name r));
  Bytes.blit b 0 t.vec (vec_offset i) n

let set_vec_u64 t i ~lane v = Bytes.set_int64_le t.vec (vec_offset i + (8 * lane)) v

(* --- Initialisation -------------------------------------------------- *)

(* BHive initialises all general-purpose registers with the same
   "moderately sized" constant it fills the physical page with, so that
   any register used as a pointer lands on a mappable address; vector
   registers get the same repeating pattern. *)
let init_constant t value =
  for i = 0 to 15 do
    Bytes.set_int64_le t.gpr (8 * i) value
  done;
  let v32 = Int64.to_int32 value in
  for i = 0 to (16 * 32 / 4) - 1 do
    Bytes.set_int32_le t.vec (i * 4) v32
  done;
  t.flags.cf <- false;
  t.flags.zf <- false;
  t.flags.sf <- false;
  t.flags.of_ <- false;
  t.flags.pf <- false;
  t.flags.af <- false;
  t.rip <- 0L
