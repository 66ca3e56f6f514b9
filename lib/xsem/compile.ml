(** The block compiler: each instruction of a block becomes a closure
    over a run context, with its operands resolved once — register byte
    offsets and widths, addressing modes, truncated immediates, vector
    widths — so that executing a step is one closure call on unboxed
    state. Registers live in the machine state's byte files, RIP in an
    8-byte slot of the context, and addresses pass to the MMU as native
    ints once checked against the mappable range.

    Every instruction reads and writes in the order the architectural
    definition below gives it: that order orders the step log's
    accesses, and decides which bytes a faulting page-crossing store
    leaves behind. Memory accesses are recorded into the run's
    {!Step_log} once they complete; events (subnormal floating-point
    traffic, division paths) set bits of the open step. *)

open X86

(* --- Run context ------------------------------------------------------ *)

(* One per run: the state's register files, the memory and log the run
   acts on, RIP (written back to the state when the run ends), an
   8-byte buffer that integer loads and stores move through, and 32-byte
   scratch buffers for vector operands and results. Nothing here is
   shared between runs, so concurrent runs on several domains never
   meet. *)
type ctx = {
  gpr : Bytes.t;
  vec : Bytes.t;
  flags : Machine_state.flags;
  ftz : bool;
  mmu : Memsim.Mmu.t;
  log : Step_log.t;
  rip : Bytes.t;
  buf : Bytes.t;
  s1 : Bytes.t;
  s2 : Bytes.t;
  s3 : Bytes.t;
  out : Bytes.t;
}

let context (st : Machine_state.t) mmu log =
  let rip = Bytes.create 8 in
  Bytes.set_int64_le rip 0 st.rip;
  {
    gpr = st.gpr;
    vec = st.vec;
    flags = st.flags;
    ftz = st.ftz;
    mmu;
    log;
    rip;
    buf = Bytes.create 8;
    s1 = Bytes.create 32;
    s2 = Bytes.create 32;
    s3 = Bytes.create 32;
    out = Bytes.create 32;
  }

let advance c len =
  Bytes.set_int64_le c.rip 0 (Int64.add (Bytes.get_int64_le c.rip 0) (Int64.of_int len))

let finish c (st : Machine_state.t) = st.rip <- Bytes.get_int64_le c.rip 0

(* --- Widths, inline on unboxed values ---------------------------------- *)

let[@inline] mask (w : Width.t) =
  match w with Width.B -> 0xFFL | Width.W -> 0xFFFFL | Width.D -> 0xFFFF_FFFFL | Width.Q -> -1L

let[@inline] trunc w v = Int64.logand v (mask w)

let[@inline] sext (w : Width.t) v =
  match w with
  | Width.Q -> v
  | Width.D -> Int64.shift_right (Int64.shift_left v 32) 32
  | Width.W -> Int64.shift_right (Int64.shift_left v 48) 48
  | Width.B -> Int64.shift_right (Int64.shift_left v 56) 56

let[@inline] bits (w : Width.t) =
  match w with Width.B -> 8 | Width.W -> 16 | Width.D -> 32 | Width.Q -> 64

let[@inline] ult (a : int64) (b : int64) = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

(* --- Registers ---------------------------------------------------------- *)

(* A general-purpose register compiles to an int: its first byte's
   offset in the register file, shifted left by 4, or'ed with its width
   in bytes (a high-byte register is the byte above its root's low
   byte). Code 0 is RIP. *)
let reg_code (r : Reg.t) =
  match r with
  | Reg.Gpr (g, w) -> ((8 * Reg.gpr_index g) lsl 4) lor Width.bytes w
  | Reg.Gpr8h g -> (((8 * Reg.gpr_index g) + 1) lsl 4) lor 1
  | Reg.Rip -> 0
  | Reg.Xmm _ | Reg.Ymm _ -> invalid_arg "Executor: vector register as an integer operand"

(* A register's value at its own width, zero-extended. *)
let[@inline] get_reg c code =
  let off = code lsr 4 in
  match code land 15 with
  | 8 -> Bytes.get_int64_le c.gpr off
  | 4 -> Int64.logand (Bytes.get_int64_le c.gpr off) 0xFFFF_FFFFL
  | 2 -> Int64.of_int (Bytes.get_uint16_le c.gpr off)
  | 1 -> Int64.of_int (Bytes.get_uint8 c.gpr off)
  | _ -> Bytes.get_int64_le c.rip 0

(* x86-64 merge rules: 8/16-bit writes merge into the old value, 32-bit
   writes zero the upper half, 64-bit writes replace. *)
let[@inline] set_reg c code v =
  let off = code lsr 4 in
  match code land 15 with
  | 8 -> Bytes.set_int64_le c.gpr off v
  | 4 -> Bytes.set_int64_le c.gpr off (Int64.logand v 0xFFFF_FFFFL)
  | 2 -> Bytes.set_uint16_le c.gpr off (Int64.to_int v land 0xFFFF)
  | 1 -> Bytes.set_uint8 c.gpr off (Int64.to_int v land 0xFF)
  | _ -> Bytes.set_int64_le c.rip 0 v

let rax_q = reg_code Reg.rax
let rdx_q = reg_code Reg.rdx
let rsp_q = reg_code Reg.rsp

(* --- Memory ------------------------------------------------------------- *)

(* An addressing mode: base and index register codes (-1 when absent),
   scale and displacement. *)
type mem = { base : int; index : int; scale : int; disp : int64 }

let mem_of (m : Operand.mem) =
  let code = function None -> -1 | Some r -> reg_code r in
  { base = code m.base; index = code m.index; scale = m.scale; disp = m.disp }

let[@inline] ea c m =
  let base = if m.base < 0 then 0L else get_reg c m.base in
  let index =
    if m.index < 0 then 0L else Int64.mul (get_reg c m.index) (Int64.of_int m.scale)
  in
  Int64.add (Int64.add base index) m.disp

(* Move [len] bytes between [buf] at [pos] and memory at [va], and
   record the access once it completes: a fault records nothing. *)
let access_va c va buf pos len store =
  let paddr = Memsim.Mmu.transfer_int c.mmu va buf ~pos ~len ~store in
  Step_log.access c.log ~vaddr:va ~paddr ~size:len ~store

(* The same at address [e], checked against the mappable range here so
   that the address reaches the MMU as a native int. *)
let[@inline] access c (e : int64) buf pos len store =
  if e >= Int64.of_int Memsim.Fault.page_size && e < Int64.of_int Memsim.Fault.end_of_user
  then access_va c (Int64.to_int e) buf pos len store
  else raise (Memsim.Fault.Fault (Memsim.Fault.Non_canonical e))

(* --- Integer operands ----------------------------------------------------- *)

(* A source read at a width: an immediate truncated to it, a register
   (read at its own width) or memory of that many bytes. An immediate
   is kept as 8 little-endian bytes: read with [Bytes.get_int64_le], it
   is unboxed like the other two, so a read's result stays unboxed. *)
type src = S_imm of Bytes.t | S_reg of int | S_mem of mem * int

type dst = D_reg of int | D_mem of mem * int

let src_of w (op : Operand.t) =
  match op with
  | Operand.Imm v ->
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Width.truncate w v);
    S_imm b
  | Operand.Reg r -> S_reg (reg_code r)
  | Operand.Mem m -> S_mem (mem_of m, Width.bytes w)

let dst_of w (op : Operand.t) =
  match op with
  | Operand.Reg r -> D_reg (reg_code r)
  | Operand.Mem m -> D_mem (mem_of m, Width.bytes w)
  | Operand.Imm _ -> invalid_arg "Executor: immediate destination"

let[@inline] load_int c e len =
  access c e c.buf 0 len false;
  let v = Bytes.get_int64_le c.buf 0 in
  match len with
  | 8 -> v
  | 4 -> Int64.logand v 0xFFFF_FFFFL
  | 2 -> Int64.logand v 0xFFFFL
  | _ -> Int64.logand v 0xFFL

let[@inline] store_int c e len v =
  Bytes.set_int64_le c.buf 0 v;
  access c e c.buf 0 len true

let[@inline] read c s =
  match s with
  | S_imm b -> Bytes.get_int64_le b 0
  | S_reg r -> get_reg c r
  | S_mem (m, len) -> load_int c (ea c m) len

let[@inline] write c d v =
  match d with D_reg r -> set_reg c r v | D_mem (m, len) -> store_int c (ea c m) len v

(* --- Flags -------------------------------------------------------------- *)

(* PF is set when the low byte has even parity. *)
let[@inline] parity v =
  let b = Int64.to_int v land 0xFF in
  let b = b lxor (b lsr 4) in
  let b = b lxor (b lsr 2) in
  (b lxor (b lsr 1)) land 1 = 0

let[@inline] set_szp c w result =
  let f = c.flags in
  let r = trunc w result in
  f.zf <- r = 0L;
  f.sf <- sext w r < 0L;
  f.pf <- parity r

let[@inline] set_logic_flags c w result =
  let f = c.flags in
  set_szp c w result;
  f.cf <- false;
  f.of_ <- false

(* Flags for a + b (+carry_in) = r at width w. *)
let[@inline] set_add_flags c w a b carry_in r =
  let f = c.flags in
  set_szp c w r;
  let m = mask w in
  let ua = Int64.logand a m and ub = Int64.logand b m in
  f.cf <-
    (match w with
    | Width.Q ->
      let r' = Int64.logand r m in
      ult r' ua || (r' = ua && carry_in && ub <> 0L) || (carry_in && ub = m)
    | _ -> Int64.add (Int64.add ua ub) (if carry_in then 1L else 0L) > m);
  let sa = sext w a >= 0L and sb = sext w b >= 0L and sr = sext w r >= 0L in
  f.of_ <- sa = sb && sa <> sr;
  f.af <- false

(* Flags for a - b (- borrow_in) = r at width w. *)
let[@inline] set_sub_flags c w a b borrow_in r =
  let f = c.flags in
  set_szp c w r;
  let m = mask w in
  let ua = Int64.logand a m and ub = Int64.logand b m in
  f.cf <- ult ua ub || (ua = ub && borrow_in);
  let sa = sext w a >= 0L and sb = sext w b >= 0L and sr = sext w r >= 0L in
  f.of_ <- sa <> sb && sa <> sr;
  f.af <- false

let[@inline] cond_holds c (k : Cond.t) =
  let f = c.flags in
  match k with
  | Cond.O -> f.of_
  | Cond.NO -> not f.of_
  | Cond.B_ -> f.cf
  | Cond.AE -> not f.cf
  | Cond.E -> f.zf
  | Cond.NE -> not f.zf
  | Cond.BE -> f.cf || f.zf
  | Cond.A -> not (f.cf || f.zf)
  | Cond.S -> f.sf
  | Cond.NS -> not f.sf
  | Cond.P -> f.pf
  | Cond.NP -> not f.pf
  | Cond.L -> f.sf <> f.of_
  | Cond.GE -> f.sf = f.of_
  | Cond.LE -> f.zf || f.sf <> f.of_
  | Cond.G -> (not f.zf) && f.sf = f.of_

let event c e = Step_log.event c.log e

(* --- Integer arithmetic helpers ----------------------------------------- *)

(* High half of the unsigned 64x64 -> 128 product; the low half is
   [Int64.mul a b]. *)
let[@inline] umulh a b =
  let mask32 = 0xFFFF_FFFFL in
  let a0 = Int64.logand a mask32 and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b mask32 and b1 = Int64.shift_right_logical b 32 in
  let p00 = Int64.mul a0 b0 in
  let p01 = Int64.mul a0 b1 in
  let p10 = Int64.mul a1 b0 in
  let p11 = Int64.mul a1 b1 in
  let mid =
    Int64.add
      (Int64.add (Int64.shift_right_logical p00 32) (Int64.logand p01 mask32))
      (Int64.logand p10 mask32)
  in
  Int64.add
    (Int64.add p11 (Int64.shift_right_logical mid 32))
    (Int64.add (Int64.shift_right_logical p01 32) (Int64.shift_right_logical p10 32))

let[@inline] smulh a b =
  let hi = umulh a b in
  let hi = if a < 0L then Int64.sub hi b else hi in
  if b < 0L then Int64.sub hi a else hi

(* [Int64.unsigned_div] and [unsigned_rem], inline. *)
let[@inline] udiv n d =
  if d < 0L then if ult n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if ult r d then q else Int64.succ q

let[@inline] urem n d = Int64.sub n (Int64.mul (udiv n d) d)

exception Div_error

(* Unsigned 128/64 -> 64 division by schoolbook bit iteration; used only
   on the slow path where the high half is non-zero. *)
let udiv128 ~hi ~lo ~divisor =
  if Int64.equal divisor 0L then raise Div_error;
  if not (ult hi divisor) then raise Div_error (* #DE overflow *);
  let rem = ref hi and quo = ref 0L in
  for bit = 63 downto 0 do
    let top = Int64.shift_right_logical !rem 63 in
    rem :=
      Int64.logor (Int64.shift_left !rem 1) (Int64.logand (Int64.shift_right_logical lo bit) 1L);
    if top <> 0L || not (ult !rem divisor) then begin
      rem := Int64.sub !rem divisor;
      quo := Int64.logor !quo (Int64.shift_left 1L bit)
    end
  done;
  (!quo, !rem)

let[@inline] popcount v =
  let v = ref v and n = ref 0 in
  while !v <> 0L do
    v := Int64.logand !v (Int64.sub !v 1L);
    incr n
  done;
  !n

(* CRC-32C (Castagnoli), the polynomial of the SSE4.2 crc32
   instruction, over the low [n] bytes of [v], on 32-bit values held in
   native ints. *)
let[@inline] crc32c crc v n =
  let crc = ref crc in
  for k = 0 to n - 1 do
    crc := !crc lxor Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL);
    for _ = 1 to 8 do
      crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0x82F63B78 else !crc lsr 1
    done
  done;
  !crc

(* --- Floating point helpers ------------------------------------------- *)

(* DAZ on inputs and FTZ on outputs are the same rule: a subnormal is
   flushed to a signed zero in FTZ mode, and otherwise raises a
   subnormal event. *)
let[@inline] flush32 c bits =
  if Int32.logand bits 0x7F80_0000l = 0l && Int32.logand bits 0x007F_FFFFl <> 0l then
    if c.ftz then Int32.logand bits 0x8000_0000l
    else begin
      event c Step_log.Subnormal;
      bits
    end
  else bits

let[@inline] flush64 c bits =
  if
    Int64.logand bits 0x7FF0_0000_0000_0000L = 0L
    && Int64.logand bits 0x000F_FFFF_FFFF_FFFFL <> 0L
  then
    if c.ftz then Int64.logand bits Int64.min_int
    else begin
      event c Step_log.Subnormal;
      bits
    end
  else bits

type fop = F_add | F_sub | F_mul | F_div | F_min | F_max | F_sqrt | F_rcp | F_rsqrt

let[@inline] fapply op (a : float) b =
  match op with
  | F_add -> a +. b
  | F_sub -> a -. b
  | F_mul -> a *. b
  | F_div -> a /. b
  | F_min -> if a < b then a else b
  | F_max -> if a > b then a else b
  | F_sqrt -> sqrt a
  | F_rcp -> 1.0 /. a
  | F_rsqrt -> 1.0 /. sqrt a

let[@inline] f32_op c op a b =
  let a = flush32 c a and b = flush32 c b in
  flush32 c (Int32.bits_of_float (fapply op (Int32.float_of_bits a) (Int32.float_of_bits b)))

let[@inline] f64_op c op a b =
  let a = flush64 c a and b = flush64 c b in
  flush64 c (Int64.bits_of_float (fapply op (Int64.float_of_bits a) (Int64.float_of_bits b)))

(* One-operand forms flush only their operand. *)
let[@inline] f32_op1 c op a =
  let a = flush32 c a in
  flush32 c (Int32.bits_of_float (fapply op (Int32.float_of_bits a) 0.0))

let[@inline] f64_op1 c op a =
  let a = flush64 c a in
  flush64 c (Int64.bits_of_float (fapply op (Int64.float_of_bits a) 0.0))

let[@inline] round_mode imm x =
  match imm land 3 with
  | 0 -> Float.round x
  | 1 -> Float.of_int (int_of_float (floor x))
  | 2 -> ceil x
  | _ -> Float.trunc x

let[@inline] fp_pred imm (x : float) y =
  match imm land 7 with
  | 0 -> x = y
  | 1 -> x < y
  | 2 -> x <= y
  | 3 -> Float.is_nan x || Float.is_nan y
  | 4 -> x <> y
  | 5 -> not (x < y)
  | 6 -> not (x <= y)
  | _ -> not (Float.is_nan x || Float.is_nan y)

(* FMA: operand roles by form (132: d*c + b; 213: b*d + c; 231: b*c +
   d), then the operation, in double precision. *)
type fma = Fma_add | Fma_sub | Fma_nadd

let[@inline] fma_apply kind form (d : float) b cc =
  let x = match form with 132 -> d | _ -> b in
  let y = match form with 213 -> d | _ -> cc in
  let z = match form with 132 -> b | 213 -> cc | _ -> d in
  match kind with Fma_add -> (x *. y) +. z | Fma_sub -> (x *. y) -. z | Fma_nadd -> z -. (x *. y)

let[@inline] fma32 c kind form d b cc =
  let d = flush32 c d and b = flush32 c b and cc = flush32 c cc in
  flush32 c
    (Int32.bits_of_float
       (fma_apply kind form (Int32.float_of_bits d) (Int32.float_of_bits b)
          (Int32.float_of_bits cc)))

let[@inline] fma64 c kind form d b cc =
  let d = flush64 c d and b = flush64 c b and cc = flush64 c cc in
  flush64 c
    (Int64.bits_of_float
       (fma_apply kind form (Int64.float_of_bits d) (Int64.float_of_bits b)
          (Int64.float_of_bits cc)))

(* --- Vector operands ------------------------------------------------------ *)

let vec_reg (r : Reg.t) =
  match r with
  | Reg.Xmm i | Reg.Ymm i -> i
  | r -> invalid_arg ("Executor: not a vector register: " ^ Reg.name r)

(* A vector source read at width [n]: a register at least that wide,
   read in place at its offset; a narrower register, zero-extended into
   scratch (offset, width); or memory, loaded into scratch. *)
type vsrc = V_reg of int | V_ext of int * int | V_mem of mem

type vdst = W_reg of int * int  (** offset and width *) | W_mem of mem

let vsrc_of n (op : Operand.t) =
  match op with
  | Operand.Reg r ->
    let off = 32 * vec_reg r and size = Reg.byte_size r in
    if size >= n then V_reg off else V_ext (off, size)
  | Operand.Mem m -> V_mem (mem_of m)
  | Operand.Imm _ -> invalid_arg "Executor: immediate vector operand"

let vdst_of (op : Operand.t) =
  match op with
  | Operand.Reg r -> W_reg (32 * vec_reg r, Reg.byte_size r)
  | Operand.Mem m -> W_mem (mem_of m)
  | Operand.Imm _ -> invalid_arg "Executor: immediate vector destination"

(* Where a source's bytes start in what [fetch] returns. *)
let voff = function V_reg o -> o | V_ext _ | V_mem _ -> 0

(* The bytes holding source [s] read at width [n]: the vector file, or
   [scratch] filled with them. *)
let fetch c s n scratch =
  match s with
  | V_reg _ -> c.vec
  | V_ext (o, k) ->
    Bytes.blit c.vec o scratch 0 k;
    Bytes.fill scratch k (n - k) '\000';
    scratch
  | V_mem m ->
    access c (ea c m) scratch 0 n false;
    scratch

(* Write [len] result bytes from [src] at [pos]: a register takes its
   own width, truncating a longer result or zero-filling above a
   shorter one; memory takes all [len]. *)
let put c d src pos len =
  match d with
  | W_reg (o, size) ->
    if len >= size then Bytes.blit src pos c.vec o size
    else begin
      Bytes.blit src pos c.vec o len;
      Bytes.fill c.vec (o + len) (size - len) '\000'
    end
  | W_mem m -> access c (ea c m) src pos len true

(* Vector width of an instruction = size of its widest vector register
   operand, or 16 for memory-only forms. *)
let vec_width (t : Inst.t) =
  let reg_w =
    List.fold_left
      (fun acc op ->
        match op with
        | Operand.Reg r when Reg.is_vector r -> Int.max acc (Reg.byte_size r)
        | _ -> acc)
      0 t.operands
  in
  if reg_w = 0 then 16 else reg_w

(* Integer lanes, zero-extended into an [int64]. *)
let[@inline] lane_get (lane : Opcode.int_lane) b o =
  match lane with
  | Opcode.I8 -> Int64.of_int (Bytes.get_uint8 b o)
  | Opcode.I16 -> Int64.of_int (Bytes.get_uint16_le b o)
  | Opcode.I32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b o)) 0xFFFF_FFFFL
  | Opcode.I64 -> Bytes.get_int64_le b o

let[@inline] lane_set (lane : Opcode.int_lane) b o v =
  match lane with
  | Opcode.I8 -> Bytes.set_uint8 b o (Int64.to_int v land 0xFF)
  | Opcode.I16 -> Bytes.set_uint16_le b o (Int64.to_int v land 0xFFFF)
  | Opcode.I32 -> Bytes.set_int32_le b o (Int64.to_int32 v)
  | Opcode.I64 -> Bytes.set_int64_le b o v

let[@inline] lane_sext (lane : Opcode.int_lane) v =
  match lane with
  | Opcode.I8 -> sext Width.B v
  | Opcode.I16 -> sext Width.W v
  | Opcode.I32 -> sext Width.D v
  | Opcode.I64 -> v

type iop =
  | I_add
  | I_sub
  | I_mul
  | I_cmpeq
  | I_cmpgt
  | I_maxs
  | I_mins
  | I_maxu
  | I_minu
  | I_avg
  | I_abs
  | I_and
  | I_andn
  | I_or
  | I_xor

let[@inline] iapply op lane x y =
  match op with
  | I_add -> Int64.add x y
  | I_sub -> Int64.sub x y
  | I_mul -> Int64.mul x y
  | I_cmpeq -> if lane_sext lane x = lane_sext lane y then -1L else 0L
  | I_cmpgt -> if lane_sext lane x > lane_sext lane y then -1L else 0L
  | I_maxs -> if lane_sext lane x > lane_sext lane y then x else y
  | I_mins -> if lane_sext lane x < lane_sext lane y then x else y
  | I_maxu -> if ult y x then x else y
  | I_minu -> if ult x y then x else y
  | I_avg -> Int64.shift_right_logical (Int64.add (Int64.add x y) 1L) 1
  | I_abs ->
    let sx = lane_sext lane x in
    if sx < 0L then Int64.neg sx else sx
  | I_and -> Int64.logand x y
  | I_andn -> Int64.logand (Int64.lognot x) y
  | I_or -> Int64.logor x y
  | I_xor -> Int64.logxor x y

(* A vector operation's body: it reads its sources from [a] at [ao] and
   [b] at [bo], [n] bytes wide, and writes its result into [c.out]. *)
type kernel = ctx -> Bytes.t -> int -> Bytes.t -> int -> int -> unit

(* The SSE (dst = dst op src) and AVX (dst = s1 op s2) forms, with or
   without a trailing immediate: the destination and the two sources. *)
let sources (t : Inst.t) =
  match t.operands with
  | [ dst; src ] -> (dst, dst, src)
  | [ dst; s1; s2 ] -> (dst, s1, s2)
  | _ -> invalid_arg ("Executor: bad vector arity for " ^ Inst.to_string t)

let sources_imm (t : Inst.t) =
  match t.operands with
  | [ dst; src; Operand.Imm i ] -> (dst, dst, src, Int64.to_int i land 0xFF)
  | [ dst; s1; s2; Operand.Imm i ] -> (dst, s1, s2, Int64.to_int i land 0xFF)
  | _ -> invalid_arg ("Executor: bad vector+imm arity for " ^ Inst.to_string t)

(* Read the second source, then the first (the order the definition
   evaluates them in), run [k] and write [len] bytes of its result. *)
let binary ~n ~len dst s1 s2 (k : kernel) =
  let v1 = vsrc_of n s1 and v2 = vsrc_of n s2 and d = vdst_of dst in
  let o1 = voff v1 and o2 = voff v2 in
  fun c ->
    let b = fetch c v2 n c.s2 in
    let a = fetch c v1 n c.s1 in
    k c a o1 b o2 n;
    put c d c.out 0 len

let vbinary (t : Inst.t) k =
  let dst, s1, s2 = sources t in
  let n = vec_width t in
  binary ~n ~len:n dst s1 s2 k

(* A one-source form: the source read at [n], the result [len] bytes. *)
let unary ~n ~len dst src (k : kernel) =
  let v = vsrc_of n src and d = vdst_of dst in
  let o = voff v in
  fun c ->
    let a = fetch c v n c.s1 in
    k c a o a o n;
    put c d c.out 0 len

(* Each lane of [n] bytes through [f32]/[f64]; scalar forms compute lane
   0 and keep the rest of the first source. *)
let fp_kernel (p : Opcode.fp_prec) op : kernel =
  match p with
  | Opcode.Ss ->
    fun c a ao b bo n ->
      Bytes.blit a ao c.out 0 n;
      Bytes.set_int32_le c.out 0 (f32_op c op (Bytes.get_int32_le a ao) (Bytes.get_int32_le b bo))
  | Opcode.Sd ->
    fun c a ao b bo n ->
      Bytes.blit a ao c.out 0 n;
      Bytes.set_int64_le c.out 0 (f64_op c op (Bytes.get_int64_le a ao) (Bytes.get_int64_le b bo))
  | Opcode.Ps ->
    fun c a ao b bo n ->
      for i = 0 to (n / 4) - 1 do
        Bytes.set_int32_le c.out (4 * i)
          (f32_op c op (Bytes.get_int32_le a (ao + (4 * i))) (Bytes.get_int32_le b (bo + (4 * i))))
      done
  | Opcode.Pd ->
    fun c a ao b bo n ->
      for i = 0 to (n / 8) - 1 do
        Bytes.set_int64_le c.out (8 * i)
          (f64_op c op (Bytes.get_int64_le a (ao + (8 * i))) (Bytes.get_int64_le b (bo + (8 * i))))
      done

(* One-operand lanes: packed forms map every lane of [a]; scalar forms
   compute lane 0 from [a] and keep the rest of [a]. *)
let fp1_kernel (p : Opcode.fp_prec) op : kernel =
  match p with
  | Opcode.Ss ->
    fun c a ao _ _ n ->
      Bytes.blit a ao c.out 0 n;
      Bytes.set_int32_le c.out 0 (f32_op1 c op (Bytes.get_int32_le a ao))
  | Opcode.Sd ->
    fun c a ao _ _ n ->
      Bytes.blit a ao c.out 0 n;
      Bytes.set_int64_le c.out 0 (f64_op1 c op (Bytes.get_int64_le a ao))
  | Opcode.Ps ->
    fun c a ao _ _ n ->
      for i = 0 to (n / 4) - 1 do
        Bytes.set_int32_le c.out (4 * i) (f32_op1 c op (Bytes.get_int32_le a (ao + (4 * i))))
      done
  | Opcode.Pd ->
    fun c a ao _ _ n ->
      for i = 0 to (n / 8) - 1 do
        Bytes.set_int64_le c.out (8 * i) (f64_op1 c op (Bytes.get_int64_le a (ao + (8 * i))))
      done

(* Integer lanes of [lane] bytes. *)
let int_kernel lane op : kernel =
  let lb = Opcode.int_lane_bytes lane in
  fun c a ao b bo n ->
    let k = ref 0 in
    while !k < n do
      lane_set lane c.out !k
        (iapply op lane (lane_get lane a (ao + !k)) (lane_get lane b (bo + !k)));
      k := !k + lb
    done

(* The low 16 bytes of the result repeated into the high 16. *)
let[@inline] dup_high c n = if n = 32 then Bytes.blit c.out 0 c.out 16 16

(* Clear the result buffer, for results that fill only its low bytes. *)
let zeroed c = Bytes.fill c.out 0 32 '\000'

(* Half [at] of a [vperm2f128] result, as control nibble [ctl] picks it. *)
let perm_half c a oa b ob ctl at =
  if ctl land 8 <> 0 then Bytes.fill c.out at 16 '\000'
  else if ctl land 2 = 0 then Bytes.blit a (oa + if ctl land 1 = 0 then 0 else 16) c.out at 16
  else Bytes.blit b (ob + if ctl land 1 = 0 then 0 else 16) c.out at 16

let[@inline] float32_at b o i = Int32.float_of_bits (Bytes.get_int32_le b (o + (4 * i)))
let[@inline] float64_at b o i = Int64.float_of_bits (Bytes.get_int64_le b (o + (8 * i)))

(* Lane [k] of a [shufps]/[shufpd] source, as [imm] selects it. *)
let[@inline] shuf32 imm src o k = Bytes.get_int32_le src (o + (4 * ((imm lsr (2 * k)) land 3)))
let[@inline] shuf64 imm src o k = Bytes.get_int64_le src (o + (8 * ((imm lsr k) land 1)))

(* Source lane [i] of a pack, sign-extended and saturated to [lo, hi]. *)
let[@inline] pack_get lane src o i lo hi =
  let raw =
    match lane with
    | Opcode.I16 -> Int64.of_int (Bytes.get_uint16_le src (o + (2 * i)))
    | _ -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le src (o + (4 * i)))) 0xFFFF_FFFFL
  in
  let v = lane_sext lane raw in
  if v < lo then lo else if v > hi then hi else v

let[@inline] pack_set lane out i v =
  match lane with
  | Opcode.I16 -> Bytes.set_uint8 out i (Int64.to_int v land 0xFF)
  | _ -> Bytes.set_uint16_le out (2 * i) (Int64.to_int v land 0xFFFF)

(* A signed 16-bit word as a native int. *)
let[@inline] word_at src k =
  let v = Bytes.get_uint16_le src k in
  if v land 0x8000 <> 0 then v - 0x10000 else v

(* Quotient and remainder of a divide: AL and AH for a byte divide,
   else the width's RAX and RDX. *)
let[@inline] div_result c (w : Width.t) rax rdx ah q r =
  match w with
  | Width.B ->
    set_reg c rax q;
    set_reg c ah r
  | _ ->
    set_reg c rax (trunc w q);
    set_reg c rdx (trunc w r)

(* --- The compiler ----------------------------------------------------- *)

let bad (t : Inst.t) = invalid_arg ("Executor: malformed " ^ Inst.to_string t)

let vector_reg_operand = function Operand.Reg r -> Reg.is_vector r | _ -> false

let compile (t : Inst.t) : ctx -> unit =
  let w = t.width in
  match (t.opcode, t.operands) with
  (* ---------------- integer moves ---------------- *)
  | Opcode.Mov, [ dst; src ] -> (
    match (dst, src) with
    (* the commonest forms, 64-bit register to register, load and
       store, move without looking at their operands' kinds *)
    | Operand.Reg (Reg.Gpr (gd, Width.Q)), Operand.Reg (Reg.Gpr (gs, Width.Q)) ->
      let od = 8 * Reg.gpr_index gd and os = 8 * Reg.gpr_index gs in
      fun c -> Bytes.set_int64_le c.gpr od (Bytes.get_int64_le c.gpr os)
    | Operand.Reg (Reg.Gpr (gd, Width.Q)), Operand.Mem m when Width.equal w Width.Q ->
      let od = 8 * Reg.gpr_index gd and m = mem_of m in
      fun c -> Bytes.set_int64_le c.gpr od (load_int c (ea c m) 8)
    | Operand.Mem m, Operand.Reg (Reg.Gpr (gs, Width.Q)) when Width.equal w Width.Q ->
      let os = 8 * Reg.gpr_index gs and m = mem_of m in
      fun c -> store_int c (ea c m) 8 (Bytes.get_int64_le c.gpr os)
    | _ ->
      let s = src_of w src and d = dst_of w dst in
      fun c -> write c d (read c s))
  | Opcode.Movzx from, [ dst; src ] ->
    let s = src_of from src and d = dst_of w dst in
    fun c -> write c d (read c s)
  | Opcode.Movsx from, [ dst; src ] ->
    let s = src_of from src and d = dst_of w dst in
    fun c -> write c d (trunc w (sext from (read c s)))
  | Opcode.Movsxd, [ dst; src ] ->
    let s = src_of Width.D src and d = dst_of Width.Q dst in
    fun c -> write c d (sext Width.D (read c s))
  | Opcode.Lea, [ dst; Operand.Mem m ] ->
    let m = mem_of m and d = dst_of w dst in
    fun c -> write c d (trunc w (ea c m))
  | Opcode.Push, [ src ] ->
    let s = src_of Width.Q src in
    fun c ->
      let v = read c s in
      let rsp = Int64.sub (get_reg c rsp_q) 8L in
      set_reg c rsp_q rsp;
      store_int c rsp 8 v
  | Opcode.Pop, [ dst ] ->
    let d = dst_of Width.Q dst in
    fun c ->
      let rsp = get_reg c rsp_q in
      let v = load_int c rsp 8 in
      set_reg c rsp_q (Int64.add rsp 8L);
      write c d v
  | Opcode.Xchg, [ a; b ] ->
    let sa = src_of w a and sb = src_of w b and da = dst_of w a and db = dst_of w b in
    fun c ->
      let va = read c sa in
      let vb = read c sb in
      write c da vb;
      write c db va
  | Opcode.Cmov k, [ dst; src ] -> (
    let s = src_of w src and d = dst_of w dst in
    (* a 32-bit cmov zeroes the upper half even when not taken *)
    match (w, dst) with
    | Width.D, Operand.Reg r ->
      let r = reg_code r in
      fun c -> if cond_holds c k then write c d (read c s) else set_reg c r (get_reg c r)
    | _ -> fun c -> if cond_holds c k then write c d (read c s))
  | Opcode.Set k, [ dst ] ->
    let d = dst_of Width.B dst in
    fun c -> write c d (if cond_holds c k then 1L else 0L)
  (* ---------------- integer ALU ---------------- *)
  | Opcode.Add, [ dst; src ] ->
    let sd = src_of w dst and s = src_of w src and d = dst_of w dst in
    fun c ->
      let a = read c sd in
      let b = read c s in
      let r = trunc w (Int64.add a b) in
      set_add_flags c w a b false r;
      write c d r
  | Opcode.Adc, [ dst; src ] ->
    let sd = src_of w dst and s = src_of w src and d = dst_of w dst in
    fun c ->
      let a = read c sd in
      let b = read c s in
      let cin = c.flags.cf in
      let r = trunc w (Int64.add (Int64.add a b) (if cin then 1L else 0L)) in
      set_add_flags c w a b cin r;
      write c d r
  | Opcode.Sub, [ dst; src ] ->
    let sd = src_of w dst and s = src_of w src and d = dst_of w dst in
    fun c ->
      let a = read c sd in
      let b = read c s in
      let r = trunc w (Int64.sub a b) in
      set_sub_flags c w a b false r;
      write c d r
  | Opcode.Sbb, [ dst; src ] ->
    let sd = src_of w dst and s = src_of w src and d = dst_of w dst in
    fun c ->
      let a = read c sd in
      let b = read c s in
      let bin = c.flags.cf in
      let r = trunc w (Int64.sub (Int64.sub a b) (if bin then 1L else 0L)) in
      set_sub_flags c w a b bin r;
      write c d r
  | Opcode.Cmp, [ a; b ] ->
    let sa = src_of w a and sb = src_of w b in
    fun c ->
      let va = read c sa in
      let vb = read c sb in
      set_sub_flags c w va vb false (trunc w (Int64.sub va vb))
  (* the logic ops read their source before their destination *)
  | Opcode.And, [ dst; src ] ->
    let sd = src_of w dst and s = src_of w src and d = dst_of w dst in
    fun c ->
      let b = read c s in
      let r = Int64.logand (read c sd) b in
      set_logic_flags c w r;
      write c d r
  | Opcode.Or, [ dst; src ] ->
    let sd = src_of w dst and s = src_of w src and d = dst_of w dst in
    fun c ->
      let b = read c s in
      let r = Int64.logor (read c sd) b in
      set_logic_flags c w r;
      write c d r
  | Opcode.Xor, [ dst; src ] -> (
    match (dst, src) with
    | Operand.Reg rd, Operand.Reg rs when Reg.is_gpr rd && Reg.equal rd rs ->
      (* the zero idiom: both reads give the same value *)
      let d = dst_of w dst in
      fun c ->
        set_logic_flags c w 0L;
        write c d 0L
    | _ ->
      let sd = src_of w dst and s = src_of w src and d = dst_of w dst in
      fun c ->
        let b = read c s in
        let r = Int64.logxor (read c sd) b in
        set_logic_flags c w r;
        write c d r)
  | Opcode.Test, [ a; b ] ->
    let sa = src_of w a and sb = src_of w b in
    fun c ->
      let vb = read c sb in
      set_logic_flags c w (Int64.logand (read c sa) vb)
  | Opcode.Inc, [ dst ] ->
    let sd = src_of w dst and d = dst_of w dst in
    fun c ->
      let a = read c sd in
      let r = trunc w (Int64.add a 1L) in
      let cf = c.flags.cf in
      set_add_flags c w a 1L false r;
      c.flags.cf <- cf (* INC preserves CF *);
      write c d r
  | Opcode.Dec, [ dst ] ->
    let sd = src_of w dst and d = dst_of w dst in
    fun c ->
      let a = read c sd in
      let r = trunc w (Int64.sub a 1L) in
      let cf = c.flags.cf in
      set_sub_flags c w a 1L false r;
      c.flags.cf <- cf;
      write c d r
  | Opcode.Neg, [ dst ] ->
    let sd = src_of w dst and d = dst_of w dst in
    fun c ->
      let a = read c sd in
      let r = trunc w (Int64.neg a) in
      set_sub_flags c w 0L a false r;
      c.flags.cf <- a <> 0L;
      write c d r
  | Opcode.Not, [ dst ] ->
    let sd = src_of w dst and d = dst_of w dst in
    fun c -> write c d (trunc w (Int64.lognot (read c sd)))
  | Opcode.((Shl | Shr | Sar | Rol | Ror) as op), [ dst; amount ] ->
    let nbits = bits w in
    let count_mask = if Width.equal w Width.Q then 63L else 31L in
    let sa = src_of Width.B amount and sd = src_of w dst and d = dst_of w dst in
    fun c ->
      let count = Int64.to_int (Int64.logand (read c sa) count_mask) in
      let a = read c sd in
      if count <> 0 then begin
        let r =
          match op with
          | Opcode.Shl -> Int64.shift_left a count
          | Opcode.Shr -> Int64.shift_right_logical (trunc w a) count
          | Opcode.Sar -> Int64.shift_right (sext w a) count
          | Opcode.Rol ->
            let k = count mod nbits in
            Int64.logor (Int64.shift_left a k) (Int64.shift_right_logical (trunc w a) (nbits - k))
          | _ ->
            let k = count mod nbits in
            Int64.logor (Int64.shift_right_logical (trunc w a) k) (Int64.shift_left a (nbits - k))
        in
        let r = trunc w r in
        set_szp c w r;
        (* CF = last bit shifted out (approximated for rotates) *)
        c.flags.cf <-
          (match op with
          | Opcode.Shl ->
            count <= nbits && Int64.logand (Int64.shift_right_logical a (nbits - count)) 1L = 1L
          | Opcode.Shr -> Int64.logand (Int64.shift_right_logical (trunc w a) (count - 1)) 1L = 1L
          | Opcode.Sar -> Int64.logand (Int64.shift_right (sext w a) (count - 1)) 1L = 1L
          | _ -> Int64.logand r 1L = 1L);
        c.flags.of_ <- false;
        write c d r
      end
  | Opcode.((Shld | Shrd) as op), dst :: src :: amount :: _ ->
    let nbits = bits w in
    let count_mask = if Width.equal w Width.Q then 63L else 31L in
    let left = match op with Opcode.Shld -> true | _ -> false in
    let sa = src_of Width.B amount and sd = src_of w dst and ss = src_of w src
    and d = dst_of w dst in
    fun c ->
      let count = Int64.to_int (Int64.logand (read c sa) count_mask) in
      if count <> 0 then begin
        let a = trunc w (read c sd) in
        let b = trunc w (read c ss) in
        let r =
          if left then
            Int64.logor (Int64.shift_left a count) (Int64.shift_right_logical b (nbits - count))
          else Int64.logor (Int64.shift_right_logical a count) (Int64.shift_left b (nbits - count))
        in
        let r = trunc w r in
        set_szp c w r;
        c.flags.cf <- false;
        c.flags.of_ <- false;
        write c d r
      end
  | Opcode.Imul_rr, [ dst; src ] ->
    let sd = src_of w dst and s = src_of w src and d = dst_of w dst in
    fun c ->
      let a = sext w (read c sd) in
      let b = sext w (read c s) in
      let r = trunc w (Int64.mul a b) in
      set_szp c w r;
      let sr = sext w r in
      let overflow =
        match w with
        | Width.Q -> smulh a b <> Int64.shift_right sr 63
        | _ -> Int64.mul a b <> sr
      in
      c.flags.cf <- overflow;
      c.flags.of_ <- overflow;
      write c d r
  | Opcode.Imul_rr, [ dst; src; imm ] ->
    let s = src_of w src and si = src_of w imm and d = dst_of w dst in
    fun c ->
      let a = sext w (read c s) in
      let b = sext w (read c si) in
      let r = trunc w (Int64.mul a b) in
      set_szp c w r;
      c.flags.cf <- false;
      c.flags.of_ <- false;
      write c d r
  | Opcode.((Mul_1 | Imul_1) as op), [ src ] ->
    let signed = match op with Opcode.Imul_1 -> true | _ -> false in
    let s = src_of w src in
    let rax = reg_code (Reg.Gpr (Reg.RAX, w)) and rdx = reg_code (Reg.Gpr (Reg.RDX, w)) in
    let ax = reg_code (Reg.Gpr (Reg.RAX, Width.W)) in
    let nbits = bits w in
    fun c ->
      let a = get_reg c rax in
      let v = read c s in
      let a = if signed then sext w a else a and b = if signed then sext w v else v in
      let prod = Int64.mul a b in
      (match w with
      | Width.B -> set_reg c ax (trunc Width.W prod)
      | Width.W | Width.D ->
        set_reg c rax (trunc w prod);
        set_reg c rdx (trunc w (Int64.shift_right_logical prod nbits))
      | Width.Q ->
        set_reg c rax_q prod;
        set_reg c rdx_q (if signed then smulh a b else umulh a b));
      (* the high half is tested unsigned, whatever the signedness *)
      let high_set =
        match w with
        | Width.B -> Int64.shift_right_logical prod 8 <> 0L
        | Width.W | Width.D -> trunc w (Int64.shift_right_logical prod nbits) <> 0L
        | Width.Q -> umulh a b <> 0L
      in
      c.flags.cf <- high_set;
      c.flags.of_ <- high_set
  | Opcode.((Div | Idiv) as op), [ src ] ->
    let signed = match op with Opcode.Idiv -> true | _ -> false in
    let s = src_of w src in
    let rax = reg_code (Reg.Gpr (Reg.RAX, w)) and rdx = reg_code (Reg.Gpr (Reg.RDX, w)) in
    let ax = reg_code (Reg.Gpr (Reg.RAX, Width.W)) and ah = reg_code (Reg.Gpr8h Reg.RAX) in
    let nbits = bits w in
    fun c ->
      let divisor = read c s in
      if divisor = 0L then event c Step_log.Div_by_zero
      else begin
        let a = get_reg c rax in
        (* an 8-bit divide takes AX as its dividend *)
        let d =
          match w with
          | Width.B -> Int64.shift_right_logical (get_reg c ax) 8
          | _ -> get_reg c rdx
        in
        let fast = d = 0L in
        event c (if fast then Step_log.Div_fast_path else Step_log.Div_slow_path);
        match w with
        | Width.Q when not signed ->
          if fast then div_result c w rax rdx ah (udiv a divisor) (urem a divisor)
          else begin
            match udiv128 ~hi:d ~lo:a ~divisor with
            | q, r -> div_result c w rax rdx ah q r
            | exception Div_error -> event c Step_log.Div_by_zero
          end
        | Width.Q ->
          (* idiv on full 128-bit dividends only supports the common
             sign-extended case (rdx = sign of rax) *)
          if d = Int64.shift_right a 63 then
            div_result c w rax rdx ah (Int64.div a divisor) (Int64.rem a divisor)
          else event c Step_log.Div_by_zero
        | _ ->
          let dividend = Int64.logor (Int64.shift_left d nbits) a in
          if not signed then begin
            let q = udiv dividend divisor in
            if q > mask w then event c Step_log.Div_by_zero
            else div_result c w rax rdx ah q (urem dividend divisor)
          end
          else begin
            let sd = sext w divisor in
            (* below 32 bits the signed dividend is AX alone, sign-extended *)
            let sdividend =
              match w with
              | Width.D -> Int64.logor (Int64.shift_left d 32) a
              | _ -> sext Width.W dividend
            in
            div_result c w rax rdx ah (Int64.div sdividend sd) (Int64.rem sdividend sd)
          end
      end
  | Opcode.Cdq, [] ->
    let eax = reg_code Reg.eax and edx = reg_code Reg.edx in
    fun c -> set_reg c edx (trunc Width.D (Int64.shift_right (sext Width.D (get_reg c eax)) 63))
  | Opcode.Cqo, [] -> fun c -> set_reg c rdx_q (Int64.shift_right (get_reg c rax_q) 63)
  (* ---------------- bit manipulation ---------------- *)
  | Opcode.((Bsf | Tzcnt) as op), [ dst; src ] ->
    let tz = match op with Opcode.Tzcnt -> true | _ -> false in
    let nbits = bits w in
    let s = src_of w src and d = dst_of w dst in
    fun c ->
      let v = trunc w (read c s) in
      c.flags.zf <- v = 0L;
      if v <> 0L then begin
        let i = ref 0 in
        while Int64.logand (Int64.shift_right_logical v !i) 1L = 0L do
          incr i
        done;
        write c d (Int64.of_int !i)
      end
      else if tz then write c d (Int64.of_int nbits)
  | Opcode.((Bsr | Lzcnt) as op), [ dst; src ] ->
    let lz = match op with Opcode.Lzcnt -> true | _ -> false in
    let nbits = bits w in
    let s = src_of w src and d = dst_of w dst in
    fun c ->
      let v = trunc w (read c s) in
      c.flags.zf <- v = 0L;
      if v = 0L then begin
        if lz then write c d (Int64.of_int nbits)
      end
      else begin
        let i = ref (nbits - 1) in
        while Int64.logand (Int64.shift_right_logical v !i) 1L = 0L do
          decr i
        done;
        write c d (Int64.of_int (if lz then nbits - 1 - !i else !i))
      end
  | Opcode.Popcnt, [ dst; src ] ->
    let s = src_of w src and d = dst_of w dst in
    fun c ->
      let v = trunc w (read c s) in
      set_logic_flags c w v;
      c.flags.zf <- v = 0L;
      write c d (Int64.of_int (popcount v))
  | Opcode.Bswap, [ dst ] ->
    let n = Width.bytes w in
    let sd = src_of w dst and d = dst_of w dst in
    fun c ->
      let v = trunc w (read c sd) in
      let r = ref 0L in
      for k = 0 to n - 1 do
        let byte = Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL in
        r := Int64.logor !r (Int64.shift_left byte (8 * (n - 1 - k)))
      done;
      write c d !r
  | Opcode.((Bt | Bts | Btr | Btc) as op), [ dst; src ] ->
    let nbits = bits w in
    let s = src_of w src and sd = src_of w dst and d = dst_of w dst in
    fun c ->
      let idx = Int64.to_int (Int64.logand (read c s) (Int64.of_int (nbits - 1))) in
      let v = read c sd in
      c.flags.cf <- Int64.logand (Int64.shift_right_logical v idx) 1L = 1L;
      let bit = Int64.shift_left 1L idx in
      (match op with
      | Opcode.Bts -> write c d (Int64.logor v bit)
      | Opcode.Btr -> write c d (Int64.logand v (Int64.lognot bit))
      | Opcode.Btc -> write c d (Int64.logxor v bit)
      | _ -> ())
  | Opcode.Andn, [ dst; s1; s2 ] ->
    let a = src_of w s1 and b = src_of w s2 and d = dst_of w dst in
    fun c ->
      let vb = read c b in
      let r = Int64.logand (Int64.lognot (read c a)) vb in
      set_logic_flags c w r;
      write c d (trunc w r)
  | Opcode.Blsi, [ dst; src ] ->
    let s = src_of w src and d = dst_of w dst in
    fun c ->
      let v = trunc w (read c s) in
      let r = Int64.logand v (Int64.neg v) in
      set_logic_flags c w r;
      c.flags.cf <- v <> 0L;
      write c d (trunc w r)
  | Opcode.Blsr, [ dst; src ] ->
    let s = src_of w src and d = dst_of w dst in
    fun c ->
      let v = trunc w (read c s) in
      let r = Int64.logand v (Int64.sub v 1L) in
      set_logic_flags c w r;
      c.flags.cf <- v = 0L;
      write c d (trunc w r)
  | Opcode.Blsmsk, [ dst; src ] ->
    let s = src_of w src and d = dst_of w dst in
    fun c ->
      let v = trunc w (read c s) in
      let r = Int64.logxor v (Int64.sub v 1L) in
      set_szp c w r;
      write c d (trunc w r)
  | Opcode.Bextr, [ dst; src; ctl ] ->
    let s = src_of w src and sc = src_of w ctl and d = dst_of w dst in
    fun c ->
      let v = trunc w (read c s) in
      let ctl = read c sc in
      let start = Int64.to_int (Int64.logand ctl 0xFFL) in
      let len = Int64.to_int (Int64.logand (Int64.shift_right_logical ctl 8) 0xFFL) in
      let r =
        if start >= 64 || len = 0 then 0L
        else
          let shifted = Int64.shift_right_logical v start in
          if len >= 64 then shifted
          else Int64.logand shifted (Int64.sub (Int64.shift_left 1L len) 1L)
      in
      set_logic_flags c w r;
      write c d (trunc w r)
  | Opcode.Crc32, [ (Operand.Reg r as dst); src ] ->
    let acc = reg_code r and s = src_of w src and d = dst_of Width.D dst in
    let n = Width.bytes w in
    fun c ->
      let crc = Int64.to_int (get_reg c acc) land 0xFFFF_FFFF in
      let v = read c s in
      write c d (Int64.of_int (crc32c crc v n))
  | Opcode.Nop, [] -> fun _ -> ()
  | Opcode.(Jmp | Jcc _ | Call | Ret), _ ->
    (* Measured blocks never contain control flow; the tracer interprets
       these itself. Treated as no-ops here. *)
    fun _ -> ()
  (* ---------------- vector moves ---------------- *)
  | Opcode.(Movap _ | Movup _ | Movdqa | Movdqu | Lddqu | Movnt _), [ dst; src ] ->
    let n = vec_width t in
    let v = vsrc_of n src and d = vdst_of dst in
    let o = voff v in
    fun c -> put c d (fetch c v n c.s1) o n
  | Opcode.Movs_x p, [ dst; src ] -> (
    let lane = match p with Opcode.Ss -> 4 | _ -> 8 in
    match (dst, src) with
    | Operand.Reg _, Operand.Reg _ ->
      (* merge into the low lane *)
      let vd = vsrc_of 16 dst and vs = vsrc_of 16 src and d = vdst_of dst in
      let od = voff vd and os = voff vs in
      fun c ->
        let a = fetch c vd 16 c.s1 in
        Bytes.blit a od c.out 0 16;
        let b = fetch c vs 16 c.s2 in
        Bytes.blit b os c.out 0 lane;
        put c d c.out 0 16
    | Operand.Reg _, Operand.Mem m ->
      let m = mem_of m and d = vdst_of dst in
      fun c ->
        zeroed c;
        access c (ea c m) c.out 0 lane false;
        put c d c.out 0 16
    | Operand.Mem m, _ ->
      let vs = vsrc_of 16 src and m = mem_of m in
      let os = voff vs in
      fun c ->
        let b = fetch c vs 16 c.s1 in
        access c (ea c m) b os lane true
    | _ -> bad t)
  | Opcode.Movd, [ dst; src ] -> (
    match (dst, src) with
    | Operand.Reg r, _ when Reg.is_vector r ->
      let s = src_of Width.D src and d = vdst_of dst in
      fun c ->
        let v = read c s in
        zeroed c;
        Bytes.set_int32_le c.out 0 (Int64.to_int32 v);
        put c d c.out 0 16
    | _, Operand.Reg r when Reg.is_vector r ->
      let vs = vsrc_of 16 src and d = dst_of Width.D dst in
      let os = voff vs in
      fun c ->
        let b = fetch c vs 16 c.s1 in
        write c d (Int64.logand (Int64.of_int32 (Bytes.get_int32_le b os)) 0xFFFF_FFFFL)
    | _ -> bad t)
  | Opcode.Movq_x, [ dst; src ] -> (
    match (dst, src) with
    | Operand.Reg r, _ when Reg.is_vector r && not (vector_reg_operand src) ->
      let s = src_of Width.Q src and d = vdst_of dst in
      fun c ->
        let v = read c s in
        zeroed c;
        Bytes.set_int64_le c.out 0 v;
        put c d c.out 0 16
    | Operand.Reg rd, Operand.Reg rs when Reg.is_vector rd && Reg.is_vector rs ->
      let vs = vsrc_of 16 src and d = vdst_of dst in
      let os = voff vs in
      fun c ->
        let b = fetch c vs 16 c.s1 in
        zeroed c;
        Bytes.blit b os c.out 0 8;
        put c d c.out 0 16
    | _, Operand.Reg r when Reg.is_vector r ->
      let vs = vsrc_of 16 src and d = dst_of Width.Q dst in
      let os = voff vs in
      fun c -> write c d (Bytes.get_int64_le (fetch c vs 16 c.s1) os)
    | _ -> bad t)
  (* ---------------- FP arithmetic ---------------- *)
  | Opcode.(Fadd p | Fsub p | Fmul p | Fdiv p | Fmin p | Fmax p), _ ->
    let op =
      match t.opcode with
      | Opcode.Fadd _ -> F_add
      | Opcode.Fsub _ -> F_sub
      | Opcode.Fmul _ -> F_mul
      | Opcode.Fdiv _ -> F_div
      | Opcode.Fmin _ -> F_min
      | _ -> F_max
    in
    vbinary t (fp_kernel p op)
  | Opcode.Fsqrt p, [ dst; src ] ->
    let n = vec_width t in
    (* scalar forms keep the source's upper lanes *)
    let read_dst = match p with Opcode.Ss | Opcode.Sd -> true | _ -> false in
    let k = fp1_kernel p F_sqrt in
    let vs = vsrc_of n src and vd = vsrc_of n dst and d = vdst_of dst in
    let os = voff vs in
    fun c ->
      let a = fetch c vs n c.s1 in
      if read_dst then ignore (fetch c vd n c.s2);
      k c a os a os n;
      put c d c.out 0 n
  | Opcode.((Rcp p | Rsqrt p) as op), [ dst; src ] ->
    let n = vec_width t in
    let f = match op with Opcode.Rcp _ -> F_rcp | _ -> F_rsqrt in
    let scalar = match p with Opcode.Ss -> true | _ -> false in
    let k = fp1_kernel (if scalar then Opcode.Ss else Opcode.Ps) f in
    let vs = vsrc_of n src and vd = vsrc_of n dst and d = vdst_of dst in
    let os = voff vs in
    fun c ->
      let a = fetch c vs n c.s1 in
      if scalar then ignore (fetch c vd n c.s2);
      k c a os a os n;
      put c d c.out 0 n
  | Opcode.(Fand _ | Fandn _ | For_ _ | Fxor _), _ ->
    let op =
      match t.opcode with
      | Opcode.Fand _ -> I_and
      | Opcode.Fandn _ -> I_andn
      | Opcode.For_ _ -> I_or
      | _ -> I_xor
    in
    vbinary t (int_kernel Opcode.I64 op)
  | Opcode.Ucomis p, [ a; b ] ->
    let va = vsrc_of 16 a and vb = vsrc_of 16 b in
    let oa = voff va and ob = voff vb in
    let single = match p with Opcode.Ss -> true | _ -> false in
    fun c ->
      let ba = fetch c va 16 c.s1 in
      let bb = fetch c vb 16 c.s2 in
      let y =
        if single then Int32.float_of_bits (flush32 c (Bytes.get_int32_le bb ob))
        else Int64.float_of_bits (flush64 c (Bytes.get_int64_le bb ob))
      in
      let x =
        if single then Int32.float_of_bits (flush32 c (Bytes.get_int32_le ba oa))
        else Int64.float_of_bits (flush64 c (Bytes.get_int64_le ba oa))
      in
      let f = c.flags in
      if Float.is_nan x || Float.is_nan y then begin
        f.zf <- true;
        f.pf <- true;
        f.cf <- true
      end
      else begin
        f.zf <- x = y;
        f.pf <- false;
        f.cf <- x < y
      end;
      f.of_ <- false;
      f.sf <- false
  | Opcode.Cmp_fp p, _ ->
    let dst, s1, s2, imm = sources_imm t in
    let n = vec_width t in
    let k : kernel =
      match p with
      | Opcode.Ss ->
        fun c a ao b bo n ->
          Bytes.blit a ao c.out 0 n;
          Bytes.set_int32_le c.out 0
            (if
               fp_pred imm
                 (Int32.float_of_bits (Bytes.get_int32_le a ao))
                 (Int32.float_of_bits (Bytes.get_int32_le b bo))
             then -1l
             else 0l)
      | Opcode.Sd ->
        fun c a ao b bo n ->
          Bytes.blit a ao c.out 0 n;
          Bytes.set_int64_le c.out 0
            (if
               fp_pred imm
                 (Int64.float_of_bits (Bytes.get_int64_le a ao))
                 (Int64.float_of_bits (Bytes.get_int64_le b bo))
             then -1L
             else 0L)
      | Opcode.Ps ->
        fun c a ao b bo n ->
          for i = 0 to (n / 4) - 1 do
            Bytes.set_int32_le c.out (4 * i)
              (if
                 fp_pred imm
                   (Int32.float_of_bits (Bytes.get_int32_le a (ao + (4 * i))))
                   (Int32.float_of_bits (Bytes.get_int32_le b (bo + (4 * i))))
               then -1l
               else 0l)
          done
      | Opcode.Pd ->
        fun c a ao b bo n ->
          for i = 0 to (n / 8) - 1 do
            Bytes.set_int64_le c.out (8 * i)
              (if
                 fp_pred imm
                   (Int64.float_of_bits (Bytes.get_int64_le a (ao + (8 * i))))
                   (Int64.float_of_bits (Bytes.get_int64_le b (bo + (8 * i))))
               then -1L
               else 0L)
          done
    in
    binary ~n ~len:n dst s1 s2 k
  | Opcode.Haddp p, _ ->
    let k : kernel =
      match p with
      | Opcode.Ps ->
        fun c a ao b bo n ->
          let half = n / 8 in
          for i = 0 to half - 1 do
            Bytes.set_int32_le c.out (4 * i)
              (Int32.bits_of_float (float32_at a ao (2 * i) +. float32_at a ao ((2 * i) + 1)))
          done;
          for i = 0 to half - 1 do
            Bytes.set_int32_le c.out (4 * (half + i))
              (Int32.bits_of_float (float32_at b bo (2 * i) +. float32_at b bo ((2 * i) + 1)))
          done
      | _ ->
        fun c a ao b bo n ->
          let half = n / 16 in
          for i = 0 to half - 1 do
            Bytes.set_int64_le c.out (8 * i)
              (Int64.bits_of_float (float64_at a ao (2 * i) +. float64_at a ao ((2 * i) + 1)))
          done;
          for i = 0 to half - 1 do
            Bytes.set_int64_le c.out (8 * (half + i))
              (Int64.bits_of_float (float64_at b bo (2 * i) +. float64_at b bo ((2 * i) + 1)))
          done
    in
    vbinary t k
  | Opcode.Round p, _ ->
    let dst, s1, s2, imm = sources_imm t in
    let n = vec_width t in
    (* the first source is read, and only the second one used *)
    let k : kernel =
      match p with
      | Opcode.Ss ->
        fun c _ _ b bo n ->
          Bytes.blit b bo c.out 0 n;
          Bytes.set_int32_le c.out 0
            (flush32 c
               (Int32.bits_of_float
                  (round_mode imm (Int32.float_of_bits (flush32 c (Bytes.get_int32_le b bo))))))
      | Opcode.Sd ->
        fun c _ _ b bo n ->
          Bytes.blit b bo c.out 0 n;
          Bytes.set_int64_le c.out 0
            (flush64 c
               (Int64.bits_of_float
                  (round_mode imm (Int64.float_of_bits (flush64 c (Bytes.get_int64_le b bo))))))
      | Opcode.Ps ->
        fun c _ _ b bo n ->
          for i = 0 to (n / 4) - 1 do
            Bytes.set_int32_le c.out (4 * i)
              (flush32 c
                 (Int32.bits_of_float
                    (round_mode imm
                       (Int32.float_of_bits (flush32 c (Bytes.get_int32_le b (bo + (4 * i))))))))
          done
      | Opcode.Pd ->
        fun c _ _ b bo n ->
          for i = 0 to (n / 8) - 1 do
            Bytes.set_int64_le c.out (8 * i)
              (flush64 c
                 (Int64.bits_of_float
                    (round_mode imm
                       (Int64.float_of_bits (flush64 c (Bytes.get_int64_le b (bo + (8 * i))))))))
          done
    in
    binary ~n ~len:n dst s1 s2 k
  (* ---------------- FMA ---------------- *)
  | Opcode.(Vfmadd (form, p) | Vfmsub (form, p) | Vfnmadd (form, p)), [ dst; s2; s3 ] ->
    let kind =
      match t.opcode with
      | Opcode.Vfmadd _ -> Fma_add
      | Opcode.Vfmsub _ -> Fma_sub
      | _ -> Fma_nadd
    in
    let n = vec_width t in
    let vd = vsrc_of n dst and vb = vsrc_of n s2 and vc = vsrc_of n s3 and d = vdst_of dst in
    let od = voff vd and ob = voff vb and oc = voff vc in
    fun c ->
      let a = fetch c vd n c.s1 in
      let b = fetch c vb n c.s2 in
      let cc = fetch c vc n c.s3 in
      (match p with
      | Opcode.Ss ->
        Bytes.blit a od c.out 0 n;
        Bytes.set_int32_le c.out 0
          (fma32 c kind form (Bytes.get_int32_le a od) (Bytes.get_int32_le b ob)
             (Bytes.get_int32_le cc oc))
      | Opcode.Sd ->
        Bytes.blit a od c.out 0 n;
        Bytes.set_int64_le c.out 0
          (fma64 c kind form (Bytes.get_int64_le a od) (Bytes.get_int64_le b ob)
             (Bytes.get_int64_le cc oc))
      | Opcode.Ps ->
        for i = 0 to (n / 4) - 1 do
          let o = 4 * i in
          Bytes.set_int32_le c.out o
            (fma32 c kind form
               (Bytes.get_int32_le a (od + o))
               (Bytes.get_int32_le b (ob + o))
               (Bytes.get_int32_le cc (oc + o)))
        done
      | Opcode.Pd ->
        for i = 0 to (n / 8) - 1 do
          let o = 8 * i in
          Bytes.set_int64_le c.out o
            (fma64 c kind form
               (Bytes.get_int64_le a (od + o))
               (Bytes.get_int64_le b (ob + o))
               (Bytes.get_int64_le cc (oc + o)))
        done);
      put c d c.out 0 n
  (* ---------------- conversions ---------------- *)
  | Opcode.Cvtsi2 p, dst :: (_ :: _ as rest) ->
    let s = src_of w (List.nth rest (List.length rest - 1)) in
    let vd = vsrc_of 16 dst and d = vdst_of dst in
    let od = voff vd in
    let single = match p with Opcode.Ss -> true | _ -> false in
    fun c ->
      let v = sext w (read c s) in
      let a = fetch c vd 16 c.s1 in
      Bytes.blit a od c.out 0 16;
      if single then Bytes.set_int32_le c.out 0 (Int32.bits_of_float (Int64.to_float v))
      else Bytes.set_int64_le c.out 0 (Int64.bits_of_float (Int64.to_float v));
      put c d c.out 0 16
  | Opcode.Cvt2si (p, _), [ dst; src ] ->
    let vs = vsrc_of 16 src and d = dst_of w dst in
    let os = voff vs in
    let single = match p with Opcode.Ss -> true | _ -> false in
    fun c ->
      let b = fetch c vs 16 c.s1 in
      let x =
        if single then Int32.float_of_bits (Bytes.get_int32_le b os)
        else Int64.float_of_bits (Bytes.get_int64_le b os)
      in
      write c d (trunc w (if Float.is_nan x then Int64.min_int else Int64.of_float x))
  | Opcode.Cvtss2sd, [ dst; src ] ->
    let vs = vsrc_of 16 src and vd = vsrc_of 16 dst and d = vdst_of dst in
    let os = voff vs and od = voff vd in
    fun c ->
      let s = fetch c vs 16 c.s1 in
      let a = fetch c vd 16 c.s2 in
      Bytes.blit a od c.out 0 16;
      let x = Int32.float_of_bits (flush32 c (Bytes.get_int32_le s os)) in
      Bytes.set_int64_le c.out 0 (flush64 c (Int64.bits_of_float x));
      put c d c.out 0 16
  | Opcode.Cvtsd2ss, [ dst; src ] ->
    let vs = vsrc_of 16 src and vd = vsrc_of 16 dst and d = vdst_of dst in
    let os = voff vs and od = voff vd in
    fun c ->
      let s = fetch c vs 16 c.s1 in
      let a = fetch c vd 16 c.s2 in
      Bytes.blit a od c.out 0 16;
      let x = Int64.float_of_bits (flush64 c (Bytes.get_int64_le s os)) in
      Bytes.set_int32_le c.out 0 (flush32 c (Int32.bits_of_float x));
      put c d c.out 0 16
  | Opcode.Cvtdq2ps, [ dst; src ] ->
    let n = vec_width t in
    unary ~n ~len:n dst src (fun c a ao _ _ n ->
        for i = 0 to (n / 4) - 1 do
          Bytes.set_int32_le c.out (4 * i)
            (Int32.bits_of_float (Int32.to_float (Bytes.get_int32_le a (ao + (4 * i)))))
        done)
  | Opcode.(Cvtps2dq | Cvttps2dq), [ dst; src ] ->
    let n = vec_width t in
    unary ~n ~len:n dst src (fun c a ao _ _ n ->
        for i = 0 to (n / 4) - 1 do
          let x = Int32.float_of_bits (Bytes.get_int32_le a (ao + (4 * i))) in
          Bytes.set_int32_le c.out (4 * i)
            (if Float.is_nan x then Int32.min_int else Int32.of_float x)
        done)
  | Opcode.Cvtdq2pd, [ dst; src ] ->
    let n = Int.max 16 (vec_width t) in
    unary ~n:16 ~len:n dst src (fun c a ao _ _ _ ->
        for i = 0 to (n / 8) - 1 do
          Bytes.set_int64_le c.out (8 * i)
            (Int64.bits_of_float (Int32.to_float (Bytes.get_int32_le a (ao + (4 * i)))))
        done)
  | Opcode.Cvtps2pd, [ dst; src ] ->
    let n = Int.max 16 (vec_width t) in
    unary ~n:16 ~len:n dst src (fun c a ao _ _ _ ->
        for i = 0 to (n / 8) - 1 do
          let x = Int32.float_of_bits (flush32 c (Bytes.get_int32_le a (ao + (4 * i)))) in
          Bytes.set_int64_le c.out (8 * i) (Int64.bits_of_float x)
        done)
  | Opcode.Cvtpd2ps, [ dst; src ] ->
    let n = vec_width t in
    unary ~n ~len:16 dst src (fun c a ao _ _ n ->
        zeroed c;
        for i = 0 to (n / 8) - 1 do
          let x = Int64.float_of_bits (flush64 c (Bytes.get_int64_le a (ao + (8 * i)))) in
          Bytes.set_int32_le c.out (4 * i) (flush32 c (Int32.bits_of_float x))
        done)
  (* ---------------- shuffles ---------------- *)
  | Opcode.Shufp p, _ ->
    let dst, s1, s2, imm = sources_imm t in
    let n = vec_width t in
    let k : kernel =
      match p with
      | Opcode.Ps ->
        fun c a ao b bo n ->
          Bytes.set_int32_le c.out 0 (shuf32 imm a ao 0);
          Bytes.set_int32_le c.out 4 (shuf32 imm a ao 1);
          Bytes.set_int32_le c.out 8 (shuf32 imm b bo 2);
          Bytes.set_int32_le c.out 12 (shuf32 imm b bo 3);
          dup_high c n
      | _ ->
        fun c a ao b bo n ->
          Bytes.set_int64_le c.out 0 (shuf64 imm a ao 0);
          Bytes.set_int64_le c.out 8 (shuf64 imm b bo 1);
          dup_high c n
    in
    binary ~n ~len:n dst s1 s2 k
  | Opcode.((Unpckl p | Unpckh p) as op), _ ->
    let base = match op with Opcode.Unpckh _ -> 8 | _ -> 0 in
    let k : kernel =
      match p with
      | Opcode.Ps ->
        fun c a ao b bo n ->
          Bytes.set_int32_le c.out 0 (Bytes.get_int32_le a (ao + base));
          Bytes.set_int32_le c.out 4 (Bytes.get_int32_le b (bo + base));
          Bytes.set_int32_le c.out 8 (Bytes.get_int32_le a (ao + base + 4));
          Bytes.set_int32_le c.out 12 (Bytes.get_int32_le b (bo + base + 4));
          dup_high c n
      | _ ->
        fun c a ao b bo n ->
          Bytes.set_int64_le c.out 0 (Bytes.get_int64_le a (ao + base));
          Bytes.set_int64_le c.out 8 (Bytes.get_int64_le b (bo + base));
          dup_high c n
    in
    vbinary t k
  | Opcode.((Punpckl lane | Punpckh lane) as op), _ ->
    let lb = Opcode.int_lane_bytes lane in
    let base = match op with Opcode.Punpckh _ -> 8 | _ -> 0 in
    vbinary t (fun c a ao b bo n ->
        let k = ref 0 and i = ref 0 in
        while !k < 16 do
          Bytes.blit a (ao + base + (!i * lb)) c.out !k lb;
          Bytes.blit b (bo + base + (!i * lb)) c.out (!k + lb) lb;
          k := !k + (2 * lb);
          incr i
        done;
        dup_high c n)
  | Opcode.Pshufd, _ ->
    let dst, s1, s2, imm = sources_imm t in
    let n = vec_width t in
    binary ~n ~len:n dst s1 s2 (fun c _ _ b bo n ->
        for i = 0 to 3 do
          Bytes.set_int32_le c.out (4 * i)
            (Bytes.get_int32_le b (bo + (4 * ((imm lsr (2 * i)) land 3))))
        done;
        dup_high c n)
  | Opcode.Pshufb, _ ->
    vbinary t (fun c a ao b bo n ->
        for i = 0 to Int.min n 16 - 1 do
          let sel = Bytes.get_uint8 b (bo + i) in
          Bytes.set_uint8 c.out i
            (if sel land 0x80 <> 0 then 0 else Bytes.get_uint8 a (ao + (sel land 0x0F)))
        done;
        dup_high c n)
  | Opcode.Palignr, _ ->
    let dst, s1, s2, imm = sources_imm t in
    let n = vec_width t in
    (* the low 16 bytes of b:a shifted right by [imm] bytes *)
    binary ~n ~len:n dst s1 s2 (fun c a ao b bo n ->
        Bytes.fill c.out 0 n '\000';
        for i = 0 to 15 do
          let j = i + imm in
          if j < 16 then Bytes.set c.out i (Bytes.get b (bo + j))
          else if j < 32 then Bytes.set c.out i (Bytes.get a (ao + j - 16))
        done;
        dup_high c n)
  | Opcode.((Pslldq | Psrldq) as op), [ dst; Operand.Imm i ] ->
    let n = vec_width t in
    let shift = Int64.to_int i land 0xFF in
    let shift = match op with Opcode.Pslldq -> -shift | _ -> shift in
    unary ~n ~len:n dst dst (fun c a ao _ _ n ->
        Bytes.fill c.out 0 n '\000';
        for k = 0 to 15 do
          let j = k + shift in
          if j >= 0 && j < 16 then Bytes.set c.out k (Bytes.get a (ao + j))
        done;
        dup_high c n)
  | Opcode.(
      (Packss ((Opcode.I16 | Opcode.I32) as lane) | Packus ((Opcode.I16 | Opcode.I32) as lane)) as op),
    _ ->
    let signed = match op with Opcode.Packss _ -> true | _ -> false in
    let src_bytes = Opcode.int_lane_bytes lane in
    let dst_bits = 4 * src_bytes in
    let lo, hi =
      if signed then
        ( Int64.neg (Int64.shift_left 1L (dst_bits - 1)),
          Int64.sub (Int64.shift_left 1L (dst_bits - 1)) 1L )
      else (0L, Int64.sub (Int64.shift_left 1L dst_bits) 1L)
    in
    let lanes = 16 / src_bytes in
    vbinary t (fun c a ao b bo n ->
        for i = 0 to lanes - 1 do
          pack_set lane c.out i (pack_get lane a ao i lo hi);
          pack_set lane c.out (lanes + i) (pack_get lane b bo i lo hi)
        done;
        dup_high c n)
  | Opcode.Blendp p, _ ->
    let dst, s1, s2, imm = sources_imm t in
    let n = vec_width t in
    let lb = match p with Opcode.Ps -> 4 | _ -> 8 in
    binary ~n ~len:n dst s1 s2 (fun c a ao b bo n ->
        Bytes.blit a ao c.out 0 n;
        for i = 0 to (n / lb) - 1 do
          if (imm lsr i) land 1 = 1 then Bytes.blit b (bo + (i * lb)) c.out (i * lb) lb
        done)
  (* ---------------- integer vector ---------------- *)
  | Opcode.((Padd lane | Psub lane) as op), _ ->
    vbinary t (int_kernel lane (match op with Opcode.Padd _ -> I_add | _ -> I_sub))
  | Opcode.Pmull lane, _ -> vbinary t (int_kernel lane I_mul)
  | Opcode.Pmuludq, _ ->
    vbinary t (fun c a ao b bo n ->
        for i = 0 to (n / 8) - 1 do
          let off = 8 * i in
          let x = Int64.logand (Int64.of_int32 (Bytes.get_int32_le a (ao + off))) 0xFFFF_FFFFL in
          let y = Int64.logand (Int64.of_int32 (Bytes.get_int32_le b (bo + off))) 0xFFFF_FFFFL in
          Bytes.set_int64_le c.out off (Int64.mul x y)
        done)
  | Opcode.Pmaddwd, _ ->
    vbinary t (fun c a ao b bo n ->
        for i = 0 to (n / 4) - 1 do
          let k = 4 * i in
          let v =
            (word_at a (ao + k) * word_at b (bo + k))
            + (word_at a (ao + k + 2) * word_at b (bo + k + 2))
          in
          Bytes.set_int32_le c.out k (Int32.of_int v)
        done)
  | Opcode.(Pand | Pandn | Por | Pxor), _ ->
    let op =
      match t.opcode with
      | Opcode.Pand -> I_and
      | Opcode.Pandn -> I_andn
      | Opcode.Por -> I_or
      | _ -> I_xor
    in
    vbinary t (int_kernel Opcode.I64 op)
  | Opcode.((Pcmpeq lane | Pcmpgt lane) as op), _ ->
    vbinary t (int_kernel lane (match op with Opcode.Pcmpeq _ -> I_cmpeq | _ -> I_cmpgt))
  | Opcode.((Pmaxs lane | Pmins lane | Pmaxu lane | Pminu lane) as op), _ ->
    let op =
      match op with
      | Opcode.Pmaxs _ -> I_maxs
      | Opcode.Pmins _ -> I_mins
      | Opcode.Pmaxu _ -> I_maxu
      | _ -> I_minu
    in
    vbinary t (int_kernel lane op)
  | Opcode.Pabs lane, [ dst; src ] ->
    let n = vec_width t in
    unary ~n ~len:n dst src (int_kernel lane I_abs)
  | Opcode.Pavg lane, _ -> vbinary t (int_kernel lane I_avg)
  | Opcode.((Psll lane | Psrl lane | Psra lane) as op), ([ _; cnt ] | [ _; _; cnt ]) ->
    let n = vec_width t in
    let dst = List.hd t.operands in
    let src = match t.operands with [ d; _ ] -> d | _ -> List.nth t.operands 1 in
    let count_of =
      match cnt with
      | Operand.Imm v -> `Imm (Int64.to_int v land 0xFF)
      | _ ->
        let vc = vsrc_of 16 cnt in
        `Vec (vc, voff vc)
    in
    let lb = Opcode.int_lane_bytes lane in
    let lane_bits = 8 * lb in
    let vs = vsrc_of n src and d = vdst_of dst in
    let os = voff vs in
    let shift c count a =
      let k = ref 0 in
      while !k < n do
        let x = lane_get lane a (os + !k) in
        let r =
          if count >= lane_bits then
            match op with
            | Opcode.Psra _ -> if lane_sext lane x < 0L then -1L else 0L
            | _ -> 0L
          else
            match op with
            | Opcode.Psll _ -> Int64.shift_left x count
            | Opcode.Psrl _ -> Int64.shift_right_logical x count
            | _ -> Int64.shift_right (lane_sext lane x) count
        in
        lane_set lane c.out !k r;
        k := !k + lb
      done;
      put c d c.out 0 n
    in
    (match count_of with
    | `Imm count -> fun c -> shift c count (fetch c vs n c.s1)
    | `Vec (vc, oc) ->
      fun c ->
        let b = fetch c vc 16 c.s2 in
        let count = Int64.to_int (Int64.logand (Bytes.get_int64_le b oc) 0xFFL) in
        shift c count (fetch c vs n c.s1))
  | Opcode.Pmovmskb, [ dst; src ] ->
    let n = vec_width t in
    let vs = vsrc_of n src and d = dst_of Width.D dst in
    let os = voff vs in
    fun c ->
      let b = fetch c vs n c.s1 in
      let r = ref 0 in
      for i = 0 to Int.min n 16 - 1 do
        if Bytes.get_uint8 b (os + i) land 0x80 <> 0 then r := !r lor (1 lsl i)
      done;
      write c d (Int64.of_int !r)
  | Opcode.Movmsk p, [ dst; src ] ->
    let n = vec_width t in
    let lb = match p with Opcode.Ps -> 4 | _ -> 8 in
    let vs = vsrc_of n src and d = dst_of Width.D dst in
    let os = voff vs in
    fun c ->
      let b = fetch c vs n c.s1 in
      let r = ref 0 in
      for i = 0 to (n / lb) - 1 do
        (* the lane's sign bit is its last byte's top bit *)
        if Bytes.get_uint8 b (os + (lb * i) + lb - 1) land 0x80 <> 0 then r := !r lor (1 lsl i)
      done;
      write c d (Int64.of_int !r)
  | Opcode.Ptest, [ a; b ] ->
    let n = vec_width t in
    let va = vsrc_of n a and vb = vsrc_of n b in
    let oa = voff va and ob = voff vb in
    fun c ->
      let x = fetch c va n c.s1 in
      let y = fetch c vb n c.s2 in
      let and_zero = ref true and andn_zero = ref true in
      for i = 0 to (n / 8) - 1 do
        let p = Bytes.get_int64_le x (oa + (8 * i)) and q = Bytes.get_int64_le y (ob + (8 * i)) in
        if Int64.logand p q <> 0L then and_zero := false;
        if Int64.logand (Int64.lognot p) q <> 0L then andn_zero := false
      done;
      let f = c.flags in
      f.zf <- !and_zero;
      f.cf <- !andn_zero;
      f.of_ <- false;
      f.sf <- false;
      f.pf <- false
  | Opcode.Pextr lane, [ dst; src; Operand.Imm i ] ->
    let lb = Opcode.int_lane_bytes lane in
    let idx = Int64.to_int i land ((16 / lb) - 1) in
    let vs = vsrc_of 16 src and d = dst_of (Width.of_bytes (Int.max 4 lb)) dst in
    let os = voff vs in
    fun c -> write c d (lane_get lane (fetch c vs 16 c.s1) (os + (lb * idx)))
  | Opcode.Pinsr lane, [ dst; src; Operand.Imm i ] ->
    let lb = Opcode.int_lane_bytes lane in
    let idx = Int64.to_int i land ((16 / lb) - 1) in
    let vd = vsrc_of 16 dst and s = src_of (Width.of_bytes (Int.max 1 lb)) src
    and d = vdst_of dst in
    let od = voff vd in
    fun c ->
      let a = fetch c vd 16 c.s1 in
      Bytes.blit a od c.out 0 16;
      lane_set lane c.out (lb * idx) (read c s);
      put c d c.out 0 16
  (* ---------------- AVX lane ops ---------------- *)
  | Opcode.Vbroadcast p, [ dst; src ] ->
    let lane = match p with Opcode.Ss -> 4 | _ -> 8 in
    let n = match dst with Operand.Reg r -> Reg.byte_size r | _ -> 16 in
    let d = vdst_of dst in
    let fill c b o =
      let k = ref 0 in
      while !k < n do
        Bytes.blit b o c.out !k lane;
        k := !k + lane
      done;
      put c d c.out 0 n
    in
    (match src with
    | Operand.Mem m ->
      let m = mem_of m in
      fun c ->
        access c (ea c m) c.s1 0 lane false;
        fill c c.s1 0
    | _ ->
      let vs = vsrc_of 16 src in
      let os = voff vs in
      fun c -> fill c (fetch c vs 16 c.s1) os)
  | Opcode.Vinsertf128, [ dst; s1; s2; Operand.Imm i ] ->
    let off = if Int64.logand i 1L = 0L then 0 else 16 in
    let va = vsrc_of 32 s1 and vb = vsrc_of 16 s2 and d = vdst_of dst in
    let oa = voff va and ob = voff vb in
    fun c ->
      let a = fetch c va 32 c.s1 in
      Bytes.blit a oa c.out 0 32;
      let b = fetch c vb 16 c.s2 in
      Bytes.blit b ob c.out off 16;
      put c d c.out 0 32
  | Opcode.Vextractf128, [ dst; src; Operand.Imm i ] ->
    let off = if Int64.logand i 1L = 0L then 0 else 16 in
    let va = vsrc_of 32 src and d = vdst_of dst in
    let oa = voff va in
    fun c -> put c d (fetch c va 32 c.s1) (oa + off) 16
  | Opcode.Vperm2f128, [ dst; s1; s2; Operand.Imm i ] ->
    let imm = Int64.to_int i in
    let va = vsrc_of 32 s1 and vb = vsrc_of 32 s2 and d = vdst_of dst in
    let oa = voff va and ob = voff vb in
    fun c ->
      let a = fetch c va 32 c.s1 in
      let b = fetch c vb 32 c.s2 in
      perm_half c a oa b ob imm 0;
      perm_half c a oa b ob (imm lsr 4) 16;
      put c d c.out 0 32
  | Opcode.Vzeroupper, [] ->
    fun c ->
      for i = 0 to 15 do
        Bytes.fill c.vec ((32 * i) + 16) 16 '\000'
      done
  | _ -> bad t

(* A malformed instruction fails when it runs, as it would in the
   profiled process, not when its block is compiled. *)
let inst t =
  match compile t with f -> f | exception Invalid_argument msg -> fun _ -> invalid_arg msg

type block = {
  code : (ctx -> unit) array;
  lengths : int array;  (** each instruction's encoded length, by which RIP advances *)
}

let block insts = { code = Array.map inst insts; lengths = Array.map Encoder.encoded_length insts }

let run b c idx total =
  let n = Array.length b.code in
  let k = ref 0 in
  while !idx < total do
    advance c b.lengths.(!k);
    b.code.(!k) c;
    Step_log.commit c.log;
    incr idx;
    k := if !k + 1 = n then 0 else !k + 1
  done
