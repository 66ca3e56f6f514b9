(** The reference interpreter for the modelled x86-64 subset: the
    executor's semantics, one instruction at a time, matching on the
    opcode and operand list at every step and computing on boxed
    [int64]. {!Xsem.Executor} compiles the same definition; the
    reference property in test_executor.ml holds it to this one.

    [exec] applies one instruction to a machine state, performing memory
    accesses through the MMU (which may raise [Memsim.Fault.Fault]) and
    recording, into the context's {!Xsem.Step_log}, each access once it
    completes and the micro-architecturally interesting events:
    subnormal floating-point traffic (which causes assists unless
    FTZ/DAZ is set) and division fast paths (zeroed high half). *)

open X86
open Xsem

exception Div_error

(* Execution context, created once per run and threaded through every
   [exec]: the state and memory the instructions act on, the log they
   record into, and a scratch buffer that integer loads and stores move
   their bytes through. *)
type ctx = {
  st : Machine_state.t;
  mmu : Memsim.Mmu.t;
  log : Step_log.t;
  buf : bytes;
}

let context st mmu log = { st; mmu; log; buf = Bytes.create 8 }

let event ctx e = Step_log.event ctx.log e

(* --- Effective addresses and memory helpers ------------------------- *)

let reg_value ctx (r : Reg.t) =
  match r with
  | Reg.Rip -> ctx.st.rip
  | _ -> Machine_state.get_reg ctx.st r

let effective_address ctx (m : Operand.mem) =
  let base = match m.base with Some b -> reg_value ctx b | None -> 0L in
  let index =
    match m.index with
    | Some i -> Int64.mul (reg_value ctx i) (Int64.of_int m.scale)
    | None -> 0L
  in
  Int64.add (Int64.add base index) m.disp

(* The MMU's data movement, byte by byte through the page table, apart
   from the page-granular path the executor takes through
   [Memsim.Mmu]: each byte is translated on its own, in address order,
   and the first byte that cannot be translated faults, the earlier
   ones moved. Returns the first byte's physical address. *)
let mmu_transfer mmu addr buf ~len ~store =
  let open Memsim in
  let paddr = ref 0 in
  for k = 0 to len - 1 do
    let va = Int64.add addr (Int64.of_int k) in
    if not (Fault.is_valid_address va) then raise (Fault.Fault (Fault.Non_canonical va));
    let pfn = Page_table.frame_number (Mmu.table mmu) (Int64.to_int (Fault.page_of_address va)) in
    if pfn < 0 then raise (Fault.Fault (Fault.Segfault va));
    let off = Fault.offset_in_page va in
    let frame = Phys_mem.frame_int (Mmu.phys mmu) pfn in
    if k = 0 then paddr := (pfn lsl Fault.page_bits) + off;
    if store then Bytes.set frame off (Bytes.get buf k) else Bytes.set buf k (Bytes.get frame off)
  done;
  !paddr

(* Move [len] bytes between [buf] and memory at [addr], and record the
   access once it completes: a fault records nothing. *)
let transfer ctx addr buf len ~store =
  if len > 0 then begin
    let paddr = mmu_transfer ctx.mmu addr buf ~len ~store in
    Step_log.access ctx.log ~vaddr:(Int64.to_int addr) ~paddr ~size:len ~store
  end

let read_mem ctx addr size : bytes =
  let data = Bytes.create size in
  transfer ctx addr data size ~store:false;
  data

let write_mem ctx addr (data : bytes) =
  transfer ctx addr data (Bytes.length data) ~store:true

let read_mem_int ctx addr (w : Width.t) : int64 =
  let b = ctx.buf in
  transfer ctx addr b (Width.bytes w) ~store:false;
  match w with
  | Width.B -> Int64.of_int (Char.code (Bytes.get b 0))
  | Width.W -> Int64.of_int (Bytes.get_uint16_le b 0)
  | Width.D -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b 0)) 0xFFFFFFFFL
  | Width.Q -> Bytes.get_int64_le b 0

let write_mem_int ctx addr (w : Width.t) v =
  let b = ctx.buf in
  (match w with
  | Width.B -> Bytes.set b 0 (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | Width.W -> Bytes.set_uint16_le b 0 (Int64.to_int (Int64.logand v 0xFFFFL))
  | Width.D -> Bytes.set_int32_le b 0 (Int64.to_int32 v)
  | Width.Q -> Bytes.set_int64_le b 0 v);
  transfer ctx addr b (Width.bytes w) ~store:true

(* Integer source operand value, zero-extended to 64 bits. *)
let src_int ctx w (op : Operand.t) : int64 =
  match op with
  | Operand.Imm v -> Width.truncate w v
  | Operand.Reg r -> Machine_state.get_reg ctx.st r
  | Operand.Mem m -> read_mem_int ctx (effective_address ctx m) w

(* Write an integer destination (register merge rules or memory store). *)
let dst_int ctx w (op : Operand.t) v =
  match op with
  | Operand.Reg r -> Machine_state.set_reg ctx.st r v
  | Operand.Mem m -> write_mem_int ctx (effective_address ctx m) w v
  | Operand.Imm _ -> invalid_arg "Semantics: immediate destination"

(* --- Flags ----------------------------------------------------------- *)

let parity_of v =
  (* PF is set when the low byte has even parity. *)
  let b = Int64.to_int (Int64.logand v 0xFFL) in
  let rec pop n acc = if n = 0 then acc else pop (n lsr 1) (acc lxor (n land 1)) in
  pop b 0 = 0

let set_szp ctx w result =
  let f = ctx.st.flags in
  let r = Width.truncate w result in
  f.zf <- Int64.equal r 0L;
  f.sf <- Int64.compare (Width.sign_extend w r) 0L < 0;
  f.pf <- parity_of r

let set_logic_flags ctx w result =
  let f = ctx.st.flags in
  set_szp ctx w result;
  f.cf <- false;
  f.of_ <- false

(* Flags for a + b (+carry_in) = r at width w. *)
let set_add_flags ctx w a b carry_in r =
  let f = ctx.st.flags in
  set_szp ctx w r;
  let mask = Width.mask w in
  let ua = Int64.logand a mask and ub = Int64.logand b mask in
  let full =
    (* compute the (bits+1)-wide sum via unsigned compare trick *)
    match w with
    | Width.Q ->
      (* carry out iff r < a (unsigned), or r = a and carry_in *)
      let r' = Int64.logand r mask in
      let lt = Int64.unsigned_compare r' ua < 0 in
      lt || (Int64.equal r' ua && carry_in && not (Int64.equal ub 0L))
         || (carry_in && Int64.equal ub (Width.mask w))
    | _ ->
      let sum = Int64.add (Int64.add ua ub) (if carry_in then 1L else 0L) in
      Int64.compare sum mask > 0
  in
  f.cf <- full;
  let sa = Width.sign_extend w a
  and sb = Width.sign_extend w b
  and sr = Width.sign_extend w r in
  f.of_ <-
    (Int64.compare sa 0L >= 0) = (Int64.compare sb 0L >= 0)
    && (Int64.compare sa 0L >= 0) <> (Int64.compare sr 0L >= 0);
  f.af <- false

(* Flags for a - b (- borrow_in) = r at width w. *)
let set_sub_flags ctx w a b borrow_in r =
  let f = ctx.st.flags in
  set_szp ctx w r;
  let mask = Width.mask w in
  let ua = Int64.logand a mask and ub = Int64.logand b mask in
  let borrow =
    Int64.unsigned_compare ua ub < 0
    || (Int64.equal ua ub && borrow_in)
  in
  f.cf <- borrow;
  let sa = Width.sign_extend w a
  and sb = Width.sign_extend w b
  and sr = Width.sign_extend w r in
  f.of_ <-
    (Int64.compare sa 0L >= 0) <> (Int64.compare sb 0L >= 0)
    && (Int64.compare sa 0L >= 0) <> (Int64.compare sr 0L >= 0);
  f.af <- false

let cond_holds ctx c =
  let f = ctx.st.flags in
  Cond.eval c ~cf:f.cf ~zf:f.zf ~sf:f.sf ~of_:f.of_ ~pf:f.pf

(* --- Integer helpers -------------------------------------------------- *)

(* Unsigned 64x64 -> 128 multiply, returning (hi, lo). *)
let umul128 a b =
  let mask32 = 0xFFFFFFFFL in
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
  let lo =
    Int64.logor
      (Int64.logand p00 mask32)
      (Int64.shift_left (Int64.logand mid mask32) 32)
  in
  let hi =
    Int64.add
      (Int64.add p11 (Int64.shift_right_logical mid 32))
      (Int64.add (Int64.shift_right_logical p01 32) (Int64.shift_right_logical p10 32))
  in
  (hi, lo)

(* Signed 64x64 -> 128 multiply. *)
let smul128 a b =
  let hi, lo = umul128 a b in
  let hi = if Int64.compare a 0L < 0 then Int64.sub hi b else hi in
  let hi = if Int64.compare b 0L < 0 then Int64.sub hi a else hi in
  (hi, lo)

(* Unsigned 128/64 -> 64 division by schoolbook bit iteration; used only
   on the slow path where the high half is non-zero. *)
let udiv128 ~hi ~lo ~divisor =
  if Int64.equal divisor 0L then raise Div_error;
  if Int64.unsigned_compare hi divisor >= 0 then raise Div_error (* #DE overflow *);
  let rem = ref hi and quo = ref 0L in
  for bit = 63 downto 0 do
    let top = Int64.shift_right_logical !rem 63 in
    rem := Int64.logor (Int64.shift_left !rem 1)
             (Int64.logand (Int64.shift_right_logical lo bit) 1L);
    if (not (Int64.equal top 0L)) || Int64.unsigned_compare !rem divisor >= 0
    then begin
      rem := Int64.sub !rem divisor;
      quo := Int64.logor !quo (Int64.shift_left 1L bit)
    end
  done;
  (!quo, !rem)

let popcount64 v =
  let rec go v acc =
    if Int64.equal v 0L then acc
    else go (Int64.logand v (Int64.sub v 1L)) (acc + 1)
  in
  go v 0

(* CRC-32C (Castagnoli), the polynomial used by the SSE4.2 crc32
   instruction; bitwise reference implementation. *)
let crc32c_byte crc byte =
  let poly = 0x82F63B78l in
  let crc = Int32.logxor crc (Int32.of_int (byte land 0xFF)) in
  let rec go crc k =
    if k = 0 then crc
    else
      let crc =
        if Int32.equal (Int32.logand crc 1l) 1l then
          Int32.logxor (Int32.shift_right_logical crc 1) poly
        else Int32.shift_right_logical crc 1
      in
      go crc (k - 1)
  in
  go crc 8

(* --- Floating point helpers ------------------------------------------ *)

let is_subnormal32 bits =
  let e = Int32.logand bits 0x7F800000l in
  let m = Int32.logand bits 0x007FFFFFl in
  Int32.equal e 0l && not (Int32.equal m 0l)

let is_subnormal64 bits =
  let e = Int64.logand bits 0x7FF0000000000000L in
  let m = Int64.logand bits 0x000FFFFFFFFFFFFFL in
  Int64.equal e 0L && not (Int64.equal m 0L)

(* Apply DAZ: flush subnormal input to zero when FTZ mode is on; record a
   subnormal event otherwise. *)
let daz32 ctx bits =
  if is_subnormal32 bits then
    if ctx.st.ftz then Int32.logand bits 0x80000000l
    else (event ctx Step_log.Subnormal; bits)
  else bits

let daz64 ctx bits =
  if is_subnormal64 bits then
    if ctx.st.ftz then Int64.logand bits 0x8000000000000000L
    else (event ctx Step_log.Subnormal; bits)
  else bits

let ftz32 ctx bits =
  if is_subnormal32 bits then
    if ctx.st.ftz then Int32.logand bits 0x80000000l
    else (event ctx Step_log.Subnormal; bits)
  else bits

let ftz64 ctx bits =
  if is_subnormal64 bits then
    if ctx.st.ftz then Int64.logand bits 0x8000000000000000L
    else (event ctx Step_log.Subnormal; bits)
  else bits

(* Binary op on float32 bit patterns with DAZ/FTZ handling. *)
let f32_op2 ctx f a b =
  let a = daz32 ctx a and b = daz32 ctx b in
  let r = Int32.bits_of_float (f (Int32.float_of_bits a) (Int32.float_of_bits b)) in
  ftz32 ctx r

let f64_op2 ctx f a b =
  let a = daz64 ctx a and b = daz64 ctx b in
  let r = Int64.bits_of_float (f (Int64.float_of_bits a) (Int64.float_of_bits b)) in
  ftz64 ctx r

let f32_op1 ctx f a =
  let a = daz32 ctx a in
  ftz32 ctx (Int32.bits_of_float (f (Int32.float_of_bits a)))

let f64_op1 ctx f a =
  let a = daz64 ctx a in
  ftz64 ctx (Int64.bits_of_float (f (Int64.float_of_bits a)))

let f32_op3 ctx f a b c =
  let a = daz32 ctx a and b = daz32 ctx b and c = daz32 ctx c in
  let r =
    Int32.bits_of_float
      (f (Int32.float_of_bits a) (Int32.float_of_bits b) (Int32.float_of_bits c))
  in
  ftz32 ctx r

let f64_op3 ctx f a b c =
  let a = daz64 ctx a and b = daz64 ctx b and c = daz64 ctx c in
  let r =
    Int64.bits_of_float
      (f (Int64.float_of_bits a) (Int64.float_of_bits b) (Int64.float_of_bits c))
  in
  ftz64 ctx r

(* --- Vector operand plumbing ----------------------------------------- *)

(* Vector operand as raw bytes of width [n]. *)
let src_vec ctx n (op : Operand.t) : bytes =
  match op with
  | Operand.Reg r ->
    let b = Machine_state.get_vec ctx.st r in
    if Bytes.length b >= n then Bytes.sub b 0 n
    else begin
      (* xmm source consumed by a ymm op: zero-extend *)
      let out = Bytes.make n '\000' in
      Bytes.blit b 0 out 0 (Bytes.length b);
      out
    end
  | Operand.Mem m -> read_mem ctx (effective_address ctx m) n
  | Operand.Imm _ -> invalid_arg "Semantics: immediate vector operand"

let dst_vec ctx (op : Operand.t) (b : bytes) =
  match op with
  | Operand.Reg r ->
    let n = Reg.byte_size r in
    if Bytes.length b = n then Machine_state.set_vec ctx.st r b
    else if Bytes.length b < n then begin
      (* writing 16 bytes to a ymm view: zero upper *)
      let out = Bytes.make n '\000' in
      Bytes.blit b 0 out 0 (Bytes.length b);
      Machine_state.set_vec ctx.st r out
    end
    else Machine_state.set_vec ctx.st r (Bytes.sub b 0 n)
  | Operand.Mem m -> write_mem ctx (effective_address ctx m) b
  | Operand.Imm _ -> invalid_arg "Semantics: immediate vector destination"

(* Vector width of an instruction = size of its destination register, or
   16 for memory-only forms. *)
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

(* Resolve SSE (dst = dst op src) vs AVX (dst = s1 op s2) source pair. *)
let vec_sources ctx n (t : Inst.t) : Operand.t * bytes * bytes =
  match t.operands with
  | [ dst; src ] -> (dst, src_vec ctx n dst, src_vec ctx n src)
  | [ dst; s1; s2 ] -> (dst, src_vec ctx n s1, src_vec ctx n s2)
  | _ -> invalid_arg ("Semantics: bad vector arity for " ^ Inst.to_string t)

(* Same but with a trailing immediate operand. *)
let vec_sources_imm ctx n (t : Inst.t) : Operand.t * bytes * bytes * int =
  match t.operands with
  | [ dst; src; Operand.Imm i ] ->
    (dst, src_vec ctx n dst, src_vec ctx n src, Int64.to_int i land 0xFF)
  | [ dst; s1; s2; Operand.Imm i ] ->
    (dst, src_vec ctx n s1, src_vec ctx n s2, Int64.to_int i land 0xFF)
  | _ -> invalid_arg ("Semantics: bad vector+imm arity for " ^ Inst.to_string t)

let map_lanes32 ctx n f (a : bytes) (b : bytes) =
  let out = Bytes.create n in
  for i = 0 to (n / 4) - 1 do
    let r = f ctx (Bytes.get_int32_le a (4 * i)) (Bytes.get_int32_le b (4 * i)) in
    Bytes.set_int32_le out (4 * i) r
  done;
  out

let map_lanes64 ctx n f (a : bytes) (b : bytes) =
  let out = Bytes.create n in
  for i = 0 to (n / 8) - 1 do
    let r = f ctx (Bytes.get_int64_le a (8 * i)) (Bytes.get_int64_le b (8 * i)) in
    Bytes.set_int64_le out (8 * i) r
  done;
  out

(* Scalar low-lane op: result low lane from f, upper bytes from [a]. *)
let scalar_lane32 ctx f (a : bytes) (b : bytes) =
  let out = Bytes.copy a in
  Bytes.set_int32_le out 0 (f ctx (Bytes.get_int32_le a 0) (Bytes.get_int32_le b 0));
  out

let scalar_lane64 ctx f (a : bytes) (b : bytes) =
  let out = Bytes.copy a in
  Bytes.set_int64_le out 0 (f ctx (Bytes.get_int64_le a 0) (Bytes.get_int64_le b 0));
  out

(* Integer lane binop over arbitrary lane width. *)
let int_lanes lane n f (a : bytes) (b : bytes) =
  let lb = Opcode.int_lane_bytes lane in
  let out = Bytes.create n in
  let get src i =
    match lane with
    | Opcode.I8 -> Int64.of_int (Char.code (Bytes.get src i))
    | Opcode.I16 -> Int64.of_int (Bytes.get_uint16_le src i)
    | Opcode.I32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le src i)) 0xFFFFFFFFL
    | Opcode.I64 -> Bytes.get_int64_le src i
  in
  let set i v =
    match lane with
    | Opcode.I8 -> Bytes.set out i (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
    | Opcode.I16 -> Bytes.set_uint16_le out i (Int64.to_int (Int64.logand v 0xFFFFL))
    | Opcode.I32 -> Bytes.set_int32_le out i (Int64.to_int32 v)
    | Opcode.I64 -> Bytes.set_int64_le out i v
  in
  let k = ref 0 in
  while !k < n do
    set !k (f (get a !k) (get b !k));
    k := !k + lb
  done;
  out

let lane_sign_extend lane v =
  match lane with
  | Opcode.I8 -> Width.sign_extend Width.B v
  | Opcode.I16 -> Width.sign_extend Width.W v
  | Opcode.I32 -> Width.sign_extend Width.D v
  | Opcode.I64 -> v

(* --- Main dispatcher -------------------------------------------------- *)

let bad (t : Inst.t) =
  invalid_arg (Printf.sprintf "Semantics.exec: malformed %s" (Inst.to_string t))

(* Execute [t], recording its accesses and events into [ctx.log] as the
   open step; the caller commits or rolls the step back. *)
let exec ctx (t : Inst.t) =
  let st = ctx.st in
  let w = t.width in
  let ops = t.operands in
  match (t.opcode, ops) with
  (* ---------------- integer moves ---------------- *)
  | Opcode.Mov, [ dst; src ] -> dst_int ctx w dst (src_int ctx w src)
  | Opcode.Movzx from, [ dst; src ] ->
    let v = src_int ctx from src in
    dst_int ctx w dst v
  | Opcode.Movsx from, [ dst; src ] ->
    let v = Width.sign_extend from (src_int ctx from src) in
    dst_int ctx w dst (Width.truncate w v)
  | Opcode.Movsxd, [ dst; src ] ->
    let v = Width.sign_extend Width.D (src_int ctx Width.D src) in
    dst_int ctx Width.Q dst v
  | Opcode.Lea, [ dst; Operand.Mem m ] ->
    dst_int ctx w dst (Width.truncate w (effective_address ctx m))
  | Opcode.Push, [ src ] ->
    let v = src_int ctx Width.Q src in
    let rsp = Int64.sub (Machine_state.get_reg st Reg.rsp) 8L in
    Machine_state.set_reg st Reg.rsp rsp;
    write_mem_int ctx rsp Width.Q v
  | Opcode.Pop, [ dst ] ->
    let rsp = Machine_state.get_reg st Reg.rsp in
    let v = read_mem_int ctx rsp Width.Q in
    Machine_state.set_reg st Reg.rsp (Int64.add rsp 8L);
    dst_int ctx Width.Q dst v
  | Opcode.Xchg, [ a; b ] ->
    let va = src_int ctx w a and vb = src_int ctx w b in
    dst_int ctx w a vb;
    dst_int ctx w b va
  | Opcode.Cmov c, [ dst; src ] ->
    if cond_holds ctx c then dst_int ctx w dst (src_int ctx w src)
    else if
      (* 32-bit cmov still zeroes the upper half even when not taken *)
      Width.equal w Width.D
    then
      (match dst with
      | Operand.Reg r -> Machine_state.set_reg st r (Machine_state.get_reg st r)
      | _ -> ())
  | Opcode.Set c, [ dst ] ->
    dst_int ctx Width.B dst (if cond_holds ctx c then 1L else 0L)
  (* ---------------- integer ALU ---------------- *)
  | Opcode.Add, [ dst; src ] ->
    let a = src_int ctx w dst and b = src_int ctx w src in
    let r = Width.truncate w (Int64.add a b) in
    set_add_flags ctx w a b false r;
    dst_int ctx w dst r
  | Opcode.Adc, [ dst; src ] ->
    let a = src_int ctx w dst and b = src_int ctx w src in
    let cin = st.flags.cf in
    let r = Width.truncate w (Int64.add (Int64.add a b) (if cin then 1L else 0L)) in
    set_add_flags ctx w a b cin r;
    dst_int ctx w dst r
  | Opcode.Sub, [ dst; src ] ->
    let a = src_int ctx w dst and b = src_int ctx w src in
    let r = Width.truncate w (Int64.sub a b) in
    set_sub_flags ctx w a b false r;
    dst_int ctx w dst r
  | Opcode.Sbb, [ dst; src ] ->
    let a = src_int ctx w dst and b = src_int ctx w src in
    let bin = st.flags.cf in
    let r = Width.truncate w (Int64.sub (Int64.sub a b) (if bin then 1L else 0L)) in
    set_sub_flags ctx w a b bin r;
    dst_int ctx w dst r
  | Opcode.Cmp, [ a; b ] ->
    let va = src_int ctx w a and vb = src_int ctx w b in
    let r = Width.truncate w (Int64.sub va vb) in
    set_sub_flags ctx w va vb false r
  | Opcode.And, [ dst; src ] ->
    let r = Int64.logand (src_int ctx w dst) (src_int ctx w src) in
    set_logic_flags ctx w r;
    dst_int ctx w dst r
  | Opcode.Or, [ dst; src ] ->
    let r = Int64.logor (src_int ctx w dst) (src_int ctx w src) in
    set_logic_flags ctx w r;
    dst_int ctx w dst r
  | Opcode.Xor, [ dst; src ] ->
    let r = Int64.logxor (src_int ctx w dst) (src_int ctx w src) in
    set_logic_flags ctx w r;
    dst_int ctx w dst r
  | Opcode.Test, [ a; b ] ->
    let r = Int64.logand (src_int ctx w a) (src_int ctx w b) in
    set_logic_flags ctx w r
  | Opcode.Inc, [ dst ] ->
    let a = src_int ctx w dst in
    let r = Width.truncate w (Int64.add a 1L) in
    let cf = st.flags.cf in
    set_add_flags ctx w a 1L false r;
    st.flags.cf <- cf (* INC preserves CF *);
    dst_int ctx w dst r
  | Opcode.Dec, [ dst ] ->
    let a = src_int ctx w dst in
    let r = Width.truncate w (Int64.sub a 1L) in
    let cf = st.flags.cf in
    set_sub_flags ctx w a 1L false r;
    st.flags.cf <- cf;
    dst_int ctx w dst r
  | Opcode.Neg, [ dst ] ->
    let a = src_int ctx w dst in
    let r = Width.truncate w (Int64.neg a) in
    set_sub_flags ctx w 0L a false r;
    st.flags.cf <- not (Int64.equal a 0L);
    dst_int ctx w dst r
  | Opcode.Not, [ dst ] ->
    dst_int ctx w dst (Width.truncate w (Int64.lognot (src_int ctx w dst)))
  | Opcode.(Shl | Shr | Sar | Rol | Ror), [ dst; amount ] ->
    let bits = Width.bits w in
    let count =
      Int64.to_int (Int64.logand (src_int ctx Width.B amount)
                      (if Width.equal w Width.Q then 63L else 31L))
    in
    let a = src_int ctx w dst in
    if count <> 0 then begin
      let r =
        match t.opcode with
        | Opcode.Shl -> Int64.shift_left a count
        | Opcode.Shr -> Int64.shift_right_logical (Width.truncate w a) count
        | Opcode.Sar -> Int64.shift_right (Width.sign_extend w a) count
        | Opcode.Rol ->
          let c = count mod bits in
          Int64.logor (Int64.shift_left a c)
            (Int64.shift_right_logical (Width.truncate w a) (bits - c))
        | Opcode.Ror ->
          let c = count mod bits in
          Int64.logor
            (Int64.shift_right_logical (Width.truncate w a) c)
            (Int64.shift_left a (bits - c))
        | _ -> assert false
      in
      let r = Width.truncate w r in
      set_szp ctx w r;
      (* CF = last bit shifted out (approximated for rotates) *)
      st.flags.cf <-
        (match t.opcode with
        | Opcode.Shl -> count <= bits && Int64.equal (Int64.logand (Int64.shift_right_logical a (bits - count)) 1L) 1L
        | Opcode.Shr -> Int64.equal (Int64.logand (Int64.shift_right_logical (Width.truncate w a) (count - 1)) 1L) 1L
        | Opcode.Sar -> Int64.equal (Int64.logand (Int64.shift_right (Width.sign_extend w a) (count - 1)) 1L) 1L
        | _ -> Int64.equal (Int64.logand r 1L) 1L);
      st.flags.of_ <- false;
      dst_int ctx w dst r
    end
  | Opcode.(Shld | Shrd), (dst :: src :: amount :: _) ->
    let bits = Width.bits w in
    let count =
      Int64.to_int (Int64.logand (src_int ctx Width.B amount)
                      (if Width.equal w Width.Q then 63L else 31L))
    in
    if count <> 0 then begin
      let a = Width.truncate w (src_int ctx w dst)
      and b = Width.truncate w (src_int ctx w src) in
      let r =
        if t.opcode = Opcode.Shld then
          Int64.logor (Int64.shift_left a count)
            (Int64.shift_right_logical b (bits - count))
        else
          Int64.logor
            (Int64.shift_right_logical a count)
            (Int64.shift_left b (bits - count))
      in
      let r = Width.truncate w r in
      set_szp ctx w r;
      st.flags.cf <- false;
      st.flags.of_ <- false;
      dst_int ctx w dst r
    end
  | Opcode.Imul_rr, [ dst; src ] ->
    let a = Width.sign_extend w (src_int ctx w dst)
    and b = Width.sign_extend w (src_int ctx w src) in
    let hi, lo = smul128 a b in
    let r = Width.truncate w lo in
    set_szp ctx w r;
    let sr = Width.sign_extend w r in
    let overflow =
      if Width.equal w Width.Q then
        not (Int64.equal hi (Int64.shift_right sr 63))
      else not (Int64.equal (Int64.mul a b) sr)
    in
    st.flags.cf <- overflow;
    st.flags.of_ <- overflow;
    dst_int ctx w dst r
  | Opcode.Imul_rr, [ dst; src; imm ] ->
    let a = Width.sign_extend w (src_int ctx w src)
    and b = Width.sign_extend w (src_int ctx w imm) in
    let r = Width.truncate w (Int64.mul a b) in
    set_szp ctx w r;
    st.flags.cf <- false;
    st.flags.of_ <- false;
    dst_int ctx w dst r
  | Opcode.(Mul_1 | Imul_1), [ src ] ->
    let rax = Machine_state.get_reg st (Reg.Gpr (Reg.RAX, w)) in
    let v = src_int ctx w src in
    let signed = t.opcode = Opcode.Imul_1 in
    let a = if signed then Width.sign_extend w rax else rax
    and b = if signed then Width.sign_extend w v else v in
    (match w with
    | Width.B ->
      let prod = Int64.mul a b in
      Machine_state.set_reg st (Reg.Gpr (Reg.RAX, Width.W)) (Width.truncate Width.W prod)
    | Width.W | Width.D ->
      let prod = Int64.mul a b in
      let bits = Width.bits w in
      Machine_state.set_reg st (Reg.Gpr (Reg.RAX, w)) (Width.truncate w prod);
      Machine_state.set_reg st (Reg.Gpr (Reg.RDX, w))
        (Width.truncate w (Int64.shift_right_logical prod bits))
    | Width.Q ->
      let hi, lo = if signed then smul128 a b else umul128 a b in
      Machine_state.set_reg st Reg.rax lo;
      Machine_state.set_reg st Reg.rdx hi);
    let high_set =
      match w with
      | Width.B ->
        not (Int64.equal (Int64.shift_right_logical (Int64.mul a b) 8) 0L)
      | Width.W | Width.D ->
        not (Int64.equal
               (Width.truncate w (Int64.shift_right_logical (Int64.mul a b) (Width.bits w)))
               0L)
      | Width.Q -> not (Int64.equal (fst (umul128 a b)) 0L)
    in
    st.flags.cf <- high_set;
    st.flags.of_ <- high_set
  | Opcode.(Div | Idiv), [ src ] -> (
    let divisor = src_int ctx w src in
    if Int64.equal divisor 0L then event ctx Step_log.Div_by_zero
    else
      let rax = Machine_state.get_reg st (Reg.Gpr (Reg.RAX, w)) in
      let rdx =
        if Width.equal w Width.B then
          (* 8-bit divide uses AX as dividend *)
          Int64.shift_right_logical (Machine_state.get_reg st (Reg.Gpr (Reg.RAX, Width.W))) 8
        else Machine_state.get_reg st (Reg.Gpr (Reg.RDX, w))
      in
      let fast = Int64.equal rdx 0L in
      event ctx (if fast then Step_log.Div_fast_path else Step_log.Div_slow_path);
      try
        let quotient, remainder =
          match w with
          | Width.Q when t.opcode = Opcode.Div ->
            if fast then (Int64.unsigned_div rax divisor, Int64.unsigned_rem rax divisor)
            else udiv128 ~hi:rdx ~lo:rax ~divisor
          | Width.Q ->
            (* idiv on full 128-bit dividends only supports the common
               sign-extended case (rdx = sign of rax). *)
            let sext = Int64.shift_right rax 63 in
            if Int64.equal rdx sext then
              let d = Width.sign_extend w divisor in
              (Int64.div rax d, Int64.rem rax d)
            else raise Div_error
          | _ ->
            let bits = Width.bits w in
            let dividend = Int64.logor (Int64.shift_left rdx bits) rax in
            if t.opcode = Opcode.Div then begin
              let q = Int64.unsigned_div dividend divisor in
              if Int64.compare q (Width.mask w) > 0 then raise Div_error;
              (q, Int64.unsigned_rem dividend divisor)
            end
            else begin
              let sd = Width.sign_extend w divisor in
              let sdividend =
                if Width.equal w Width.D then
                  Int64.logor (Int64.shift_left rdx 32) rax
                else Width.sign_extend Width.W dividend
              in
              let sdividend =
                if Width.equal w Width.D then sdividend
                else sdividend
              in
              (Int64.div sdividend sd, Int64.rem sdividend sd)
            end
        in
        if Width.equal w Width.B then begin
          Machine_state.set_reg st (Reg.Gpr (Reg.RAX, Width.B)) quotient;
          Machine_state.set_reg st (Reg.Gpr8h Reg.RAX) remainder
        end
        else begin
          Machine_state.set_reg st (Reg.Gpr (Reg.RAX, w)) (Width.truncate w quotient);
          Machine_state.set_reg st (Reg.Gpr (Reg.RDX, w)) (Width.truncate w remainder)
        end
      with Div_error -> event ctx Step_log.Div_by_zero)
  | Opcode.Cdq, [] ->
    let eax = Machine_state.get_reg st Reg.eax in
    let sign = Int64.shift_right (Width.sign_extend Width.D eax) 63 in
    Machine_state.set_reg st Reg.edx (Width.truncate Width.D sign)
  | Opcode.Cqo, [] ->
    let rax = Machine_state.get_reg st Reg.rax in
    Machine_state.set_reg st Reg.rdx (Int64.shift_right rax 63)
  (* ---------------- bit manipulation ---------------- *)
  | Opcode.(Bsf | Tzcnt), [ dst; src ] ->
    let v = Width.truncate w (src_int ctx w src) in
    let bits = Width.bits w in
    let r =
      if Int64.equal v 0L then (if t.opcode = Opcode.Tzcnt then bits else 0)
      else
        let rec go i = if Int64.equal (Int64.logand (Int64.shift_right_logical v i) 1L) 1L then i else go (i + 1) in
        go 0
    in
    st.flags.zf <- Int64.equal v 0L;
    if not (Int64.equal v 0L) || t.opcode = Opcode.Tzcnt then
      dst_int ctx w dst (Int64.of_int r)
  | Opcode.(Bsr | Lzcnt), [ dst; src ] ->
    let v = Width.truncate w (src_int ctx w src) in
    let bits = Width.bits w in
    st.flags.zf <- Int64.equal v 0L;
    if Int64.equal v 0L then begin
      if t.opcode = Opcode.Lzcnt then dst_int ctx w dst (Int64.of_int bits)
    end
    else begin
      let rec go i = if Int64.equal (Int64.logand (Int64.shift_right_logical v i) 1L) 1L then i else go (i - 1) in
      let msb = go (bits - 1) in
      let r = if t.opcode = Opcode.Bsr then msb else bits - 1 - msb in
      dst_int ctx w dst (Int64.of_int r)
    end
  | Opcode.Popcnt, [ dst; src ] ->
    let v = Width.truncate w (src_int ctx w src) in
    set_logic_flags ctx w v;
    st.flags.zf <- Int64.equal v 0L;
    dst_int ctx w dst (Int64.of_int (popcount64 v))
  | Opcode.Bswap, [ dst ] ->
    let v = Width.truncate w (src_int ctx w dst) in
    let n = Width.bytes w in
    let r = ref 0L in
    for k = 0 to n - 1 do
      let byte = Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL in
      r := Int64.logor !r (Int64.shift_left byte (8 * (n - 1 - k)))
    done;
    dst_int ctx w dst !r
  | Opcode.(Bt | Bts | Btr | Btc), [ dst; src ] ->
    let bits = Width.bits w in
    let idx = Int64.to_int (Int64.logand (src_int ctx w src) (Int64.of_int (bits - 1))) in
    let v = src_int ctx w dst in
    st.flags.cf <- Int64.equal (Int64.logand (Int64.shift_right_logical v idx) 1L) 1L;
    let bit = Int64.shift_left 1L idx in
    (match t.opcode with
    | Opcode.Bts -> dst_int ctx w dst (Int64.logor v bit)
    | Opcode.Btr -> dst_int ctx w dst (Int64.logand v (Int64.lognot bit))
    | Opcode.Btc -> dst_int ctx w dst (Int64.logxor v bit)
    | _ -> ())
  | Opcode.Andn, [ dst; s1; s2 ] ->
    let r = Int64.logand (Int64.lognot (src_int ctx w s1)) (src_int ctx w s2) in
    set_logic_flags ctx w r;
    dst_int ctx w dst (Width.truncate w r)
  | Opcode.Blsi, [ dst; src ] ->
    let v = Width.truncate w (src_int ctx w src) in
    let r = Int64.logand v (Int64.neg v) in
    set_logic_flags ctx w r;
    st.flags.cf <- not (Int64.equal v 0L);
    dst_int ctx w dst (Width.truncate w r)
  | Opcode.Blsr, [ dst; src ] ->
    let v = Width.truncate w (src_int ctx w src) in
    let r = Int64.logand v (Int64.sub v 1L) in
    set_logic_flags ctx w r;
    st.flags.cf <- Int64.equal v 0L;
    dst_int ctx w dst (Width.truncate w r)
  | Opcode.Blsmsk, [ dst; src ] ->
    let v = Width.truncate w (src_int ctx w src) in
    let r = Int64.logxor v (Int64.sub v 1L) in
    set_szp ctx w r;
    dst_int ctx w dst (Width.truncate w r)
  | Opcode.Bextr, [ dst; src; ctl ] ->
    let v = Width.truncate w (src_int ctx w src) in
    let c = src_int ctx w ctl in
    let start = Int64.to_int (Int64.logand c 0xFFL) in
    let len = Int64.to_int (Int64.logand (Int64.shift_right_logical c 8) 0xFFL) in
    let r =
      if start >= 64 || len = 0 then 0L
      else
        let shifted = Int64.shift_right_logical v start in
        if len >= 64 then shifted
        else Int64.logand shifted (Int64.sub (Int64.shift_left 1L len) 1L)
    in
    set_logic_flags ctx w r;
    dst_int ctx w dst (Width.truncate w r)
  | Opcode.Crc32, [ dst; src ] ->
    let acc = Int64.to_int32 (Machine_state.get_reg st (match dst with Operand.Reg r -> r | _ -> bad t)) in
    let v = src_int ctx w src in
    let n = Width.bytes w in
    let crc = ref acc in
    for k = 0 to n - 1 do
      let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL) in
      crc := crc32c_byte !crc byte
    done;
    dst_int ctx Width.D dst (Int64.logand (Int64.of_int32 !crc) 0xFFFFFFFFL)
  | Opcode.Nop, [] -> ()
  | Opcode.(Jmp | Jcc _ | Call | Ret), _ ->
    (* Measured blocks never contain control flow; the tracer interprets
       these itself. Treated as no-ops here. *)
    ()
  (* ---------------- vector moves ---------------- *)
  | Opcode.(Movap _ | Movup _ | Movdqa | Movdqu | Lddqu | Movnt _), [ dst; src ] ->
    let n = vec_width t in
    dst_vec ctx dst (src_vec ctx n src)
  | Opcode.Movs_x p, [ dst; src ] -> (
    let lane = match p with Opcode.Ss -> 4 | _ -> 8 in
    match (dst, src) with
    | Operand.Reg _, Operand.Reg _ ->
      (* merge into low lane *)
      let d = src_vec ctx 16 dst and s = src_vec ctx 16 src in
      let out = Bytes.copy d in
      Bytes.blit s 0 out 0 lane;
      dst_vec ctx dst out
    | Operand.Reg _, Operand.Mem m ->
      let b = read_mem ctx (effective_address ctx m) lane in
      let out = Bytes.make 16 '\000' in
      Bytes.blit b 0 out 0 lane;
      dst_vec ctx dst out
    | Operand.Mem m, _ ->
      let s = src_vec ctx 16 src in
      write_mem ctx (effective_address ctx m) (Bytes.sub s 0 lane)
    | _ -> bad t)
  | Opcode.Movd, [ dst; src ] -> (
    match (dst, src) with
    | Operand.Reg r, _ when Reg.is_vector r ->
      let v = src_int ctx Width.D src in
      let out = Bytes.make 16 '\000' in
      Bytes.set_int32_le out 0 (Int64.to_int32 v);
      dst_vec ctx dst out
    | _, Operand.Reg r when Reg.is_vector r ->
      let s = src_vec ctx 16 src in
      dst_int ctx Width.D dst
        (Int64.logand (Int64.of_int32 (Bytes.get_int32_le s 0)) 0xFFFFFFFFL)
    | _ -> bad t)
  | Opcode.Movq_x, [ dst; src ] -> (
    match (dst, src) with
    | Operand.Reg r, _ when Reg.is_vector r && not (Operand.is_reg src && Reg.is_vector (match src with Operand.Reg x -> x | _ -> assert false)) ->
      let v = src_int ctx Width.Q src in
      let out = Bytes.make 16 '\000' in
      Bytes.set_int64_le out 0 v;
      dst_vec ctx dst out
    | Operand.Reg rd, Operand.Reg rs when Reg.is_vector rd && Reg.is_vector rs ->
      let s = src_vec ctx 16 src in
      let out = Bytes.make 16 '\000' in
      Bytes.blit s 0 out 0 8;
      dst_vec ctx dst out
    | _, Operand.Reg r when Reg.is_vector r ->
      let s = src_vec ctx 16 src in
      dst_int ctx Width.Q dst (Bytes.get_int64_le s 0)
    | _ -> bad t)
  (* ---------------- FP arithmetic ---------------- *)
  | Opcode.(Fadd p | Fsub p | Fmul p | Fdiv p | Fmin p | Fmax p), _ ->
    let f64 a b =
      match t.opcode with
      | Opcode.Fadd _ -> a +. b
      | Opcode.Fsub _ -> a -. b
      | Opcode.Fmul _ -> a *. b
      | Opcode.Fdiv _ -> a /. b
      | Opcode.Fmin _ -> if a < b then a else b
      | Opcode.Fmax _ -> if a > b then a else b
      | _ -> assert false
    in
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let out =
      match p with
      | Opcode.Ss -> scalar_lane32 ctx (fun c x y -> f32_op2 c f64 x y) a b
      | Opcode.Sd -> scalar_lane64 ctx (fun c x y -> f64_op2 c f64 x y) a b
      | Opcode.Ps -> map_lanes32 ctx n (fun c x y -> f32_op2 c f64 x y) a b
      | Opcode.Pd -> map_lanes64 ctx n (fun c x y -> f64_op2 c f64 x y) a b
    in
    dst_vec ctx dst out
  | Opcode.Fsqrt p, [ dst; src ] ->
    let n = vec_width t in
    let s = src_vec ctx n src in
    let out =
      match p with
      | Opcode.Ss ->
        let d = src_vec ctx n dst in
        scalar_lane32 ctx (fun c x _ -> f32_op1 c sqrt x) s d
      | Opcode.Sd ->
        let d = src_vec ctx n dst in
        scalar_lane64 ctx (fun c x _ -> f64_op1 c sqrt x) s d
      | Opcode.Ps -> map_lanes32 ctx n (fun c x _ -> f32_op1 c sqrt x) s s
      | Opcode.Pd -> map_lanes64 ctx n (fun c x _ -> f64_op1 c sqrt x) s s
    in
    dst_vec ctx dst out
  | Opcode.(Rcp p | Rsqrt p), [ dst; src ] ->
    let rcp = match t.opcode with Opcode.Rcp _ -> true | _ -> false in
    let f x = if rcp then 1.0 /. x else 1.0 /. sqrt x in
    let n = vec_width t in
    let s = src_vec ctx n src in
    let out =
      match p with
      | Opcode.Ss ->
        let d = src_vec ctx n dst in
        scalar_lane32 ctx (fun c x _ -> f32_op1 c f x) s d
      | _ -> map_lanes32 ctx n (fun c x _ -> f32_op1 c f x) s s
    in
    dst_vec ctx dst out
  | Opcode.(Fand p | Fandn p | For_ p | Fxor p), _ ->
    ignore p;
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let f x y =
      match t.opcode with
      | Opcode.Fand _ -> Int64.logand x y
      | Opcode.Fandn _ -> Int64.logand (Int64.lognot x) y
      | Opcode.For_ _ -> Int64.logor x y
      | Opcode.Fxor _ -> Int64.logxor x y
      | _ -> assert false
    in
    dst_vec ctx dst (map_lanes64 ctx n (fun _ x y -> f x y) a b)
  | Opcode.Ucomis p, [ a; b ] ->
    let va = src_vec ctx 16 a and vb = src_vec ctx 16 b in
    let x, y =
      match p with
      | Opcode.Ss ->
        ( Int32.float_of_bits (daz32 ctx (Bytes.get_int32_le va 0)),
          Int32.float_of_bits (daz32 ctx (Bytes.get_int32_le vb 0)) )
      | _ ->
        ( Int64.float_of_bits (daz64 ctx (Bytes.get_int64_le va 0)),
          Int64.float_of_bits (daz64 ctx (Bytes.get_int64_le vb 0)) )
    in
    let f = st.flags in
    if Float.is_nan x || Float.is_nan y then begin
      f.zf <- true; f.pf <- true; f.cf <- true
    end
    else begin
      f.zf <- x = y;
      f.pf <- false;
      f.cf <- x < y
    end;
    f.of_ <- false;
    f.sf <- false
  | Opcode.Cmp_fp p, _ ->
    let n = vec_width t in
    let dst, a, b, imm = vec_sources_imm ctx n t in
    let pred x y =
      match imm land 7 with
      | 0 -> x = y
      | 1 -> x < y
      | 2 -> x <= y
      | 3 -> Float.is_nan x || Float.is_nan y
      | 4 -> x <> y
      | 5 -> not (x < y)
      | 6 -> not (x <= y)
      | _ -> not (Float.is_nan x || Float.is_nan y)
    in
    let out =
      match p with
      | Opcode.Ss ->
        scalar_lane32 ctx
          (fun _ x y ->
            if pred (Int32.float_of_bits x) (Int32.float_of_bits y) then -1l else 0l)
          a b
      | Opcode.Sd ->
        scalar_lane64 ctx
          (fun _ x y ->
            if pred (Int64.float_of_bits x) (Int64.float_of_bits y) then -1L else 0L)
          a b
      | Opcode.Ps ->
        map_lanes32 ctx n
          (fun _ x y ->
            if pred (Int32.float_of_bits x) (Int32.float_of_bits y) then -1l else 0l)
          a b
      | Opcode.Pd ->
        map_lanes64 ctx n
          (fun _ x y ->
            if pred (Int64.float_of_bits x) (Int64.float_of_bits y) then -1L else 0L)
          a b
    in
    dst_vec ctx dst out
  | Opcode.Haddp p, _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let out = Bytes.create n in
    (match p with
    | Opcode.Ps ->
      let get src i = Int32.float_of_bits (Bytes.get_int32_le src (4 * i)) in
      let lanes = n / 4 in
      let half = lanes / 2 in
      for i = 0 to half - 1 do
        Bytes.set_int32_le out (4 * i)
          (Int32.bits_of_float (get a (2 * i) +. get a ((2 * i) + 1)))
      done;
      for i = 0 to half - 1 do
        Bytes.set_int32_le out (4 * (half + i))
          (Int32.bits_of_float (get b (2 * i) +. get b ((2 * i) + 1)))
      done
    | _ ->
      let get src i = Int64.float_of_bits (Bytes.get_int64_le src (8 * i)) in
      let lanes = n / 8 in
      let half = lanes / 2 in
      for i = 0 to half - 1 do
        Bytes.set_int64_le out (8 * i)
          (Int64.bits_of_float (get a (2 * i) +. get a ((2 * i) + 1)))
      done;
      for i = 0 to half - 1 do
        Bytes.set_int64_le out (8 * (half + i))
          (Int64.bits_of_float (get b (2 * i) +. get b ((2 * i) + 1)))
      done);
    dst_vec ctx dst out
  | Opcode.Round p, _ ->
    let n = vec_width t in
    let dst, a, b, imm = vec_sources_imm ctx n t in
    ignore a;
    let mode x =
      match imm land 3 with
      | 0 -> Float.round x (* nearest-ish *)
      | 1 -> Float.of_int (int_of_float (floor x))
      | 2 -> ceil x
      | _ -> Float.trunc x
    in
    let out =
      match p with
      | Opcode.Ss -> scalar_lane32 ctx (fun c x _ -> f32_op1 c mode x) b b
      | Opcode.Sd -> scalar_lane64 ctx (fun c x _ -> f64_op1 c mode x) b b
      | Opcode.Ps -> map_lanes32 ctx n (fun c x _ -> f32_op1 c mode x) b b
      | Opcode.Pd -> map_lanes64 ctx n (fun c x _ -> f64_op1 c mode x) b b
    in
    dst_vec ctx dst out
  (* ---------------- FMA ---------------- *)
  | Opcode.(Vfmadd (form, p) | Vfmsub (form, p) | Vfnmadd (form, p)), [ dst; s2; s3 ] ->
    let n = vec_width t in
    let d = src_vec ctx n dst and b = src_vec ctx n s2 and c = src_vec ctx n s3 in
    (* operand roles by form: 132: d*c + b; 213: b*d + c; 231: b*c + d *)
    let combine x y z =
      match form with
      | 132 -> (x, z, y)
      | 213 -> (y, x, z)
      | _ -> (y, z, x)
    in
    let apply a b c =
      match t.opcode with
      | Opcode.Vfmadd _ -> (a *. b) +. c
      | Opcode.Vfmsub _ -> (a *. b) -. c
      | _ -> c -. (a *. b)
    in
    let out = Bytes.create n in
    (match p with
    | Opcode.Ss | Opcode.Sd ->
      let bytes = if p = Opcode.Ss then 4 else 8 in
      Bytes.blit d 0 out 0 n;
      if bytes = 4 then begin
        let x, y, z =
          combine (Bytes.get_int32_le d 0) (Bytes.get_int32_le b 0) (Bytes.get_int32_le c 0)
        in
        Bytes.set_int32_le out 0 (f32_op3 ctx apply x y z)
      end
      else begin
        let x, y, z =
          combine (Bytes.get_int64_le d 0) (Bytes.get_int64_le b 0) (Bytes.get_int64_le c 0)
        in
        Bytes.set_int64_le out 0 (f64_op3 ctx apply x y z)
      end
    | Opcode.Ps ->
      for i = 0 to (n / 4) - 1 do
        let x, y, z =
          combine
            (Bytes.get_int32_le d (4 * i))
            (Bytes.get_int32_le b (4 * i))
            (Bytes.get_int32_le c (4 * i))
        in
        Bytes.set_int32_le out (4 * i) (f32_op3 ctx apply x y z)
      done
    | Opcode.Pd ->
      for i = 0 to (n / 8) - 1 do
        let x, y, z =
          combine
            (Bytes.get_int64_le d (8 * i))
            (Bytes.get_int64_le b (8 * i))
            (Bytes.get_int64_le c (8 * i))
        in
        Bytes.set_int64_le out (8 * i) (f64_op3 ctx apply x y z)
      done);
    dst_vec ctx dst out
  (* ---------------- conversions ---------------- *)
  | Opcode.Cvtsi2 p, (dst :: rest) ->
    let src = List.nth rest (List.length rest - 1) in
    let v = Width.sign_extend w (src_int ctx w src) in
    let d = src_vec ctx 16 dst in
    let out = Bytes.copy d in
    (match p with
    | Opcode.Ss -> Bytes.set_int32_le out 0 (Int32.bits_of_float (Int64.to_float v))
    | _ -> Bytes.set_int64_le out 0 (Int64.bits_of_float (Int64.to_float v)));
    dst_vec ctx dst out
  | Opcode.Cvt2si (p, _trunc), [ dst; src ] ->
    let s = src_vec ctx 16 src in
    let x =
      match p with
      | Opcode.Ss -> Int32.float_of_bits (Bytes.get_int32_le s 0)
      | _ -> Int64.float_of_bits (Bytes.get_int64_le s 0)
    in
    let v = if Float.is_nan x then Int64.min_int else Int64.of_float x in
    dst_int ctx w dst (Width.truncate w v)
  | Opcode.Cvtss2sd, [ dst; src ] ->
    let s = src_vec ctx 16 src in
    let d = src_vec ctx 16 dst in
    let out = Bytes.copy d in
    let x = Int32.float_of_bits (daz32 ctx (Bytes.get_int32_le s 0)) in
    Bytes.set_int64_le out 0 (ftz64 ctx (Int64.bits_of_float x));
    dst_vec ctx dst out
  | Opcode.Cvtsd2ss, [ dst; src ] ->
    let s = src_vec ctx 16 src in
    let d = src_vec ctx 16 dst in
    let out = Bytes.copy d in
    let x = Int64.float_of_bits (daz64 ctx (Bytes.get_int64_le s 0)) in
    Bytes.set_int32_le out 0 (ftz32 ctx (Int32.bits_of_float x));
    dst_vec ctx dst out
  | Opcode.Cvtdq2ps, [ dst; src ] ->
    let n = vec_width t in
    let s = src_vec ctx n src in
    let out = Bytes.create n in
    for i = 0 to (n / 4) - 1 do
      Bytes.set_int32_le out (4 * i)
        (Int32.bits_of_float (Int32.to_float (Bytes.get_int32_le s (4 * i))))
    done;
    dst_vec ctx dst out
  | Opcode.(Cvtps2dq | Cvttps2dq), [ dst; src ] ->
    let n = vec_width t in
    let s = src_vec ctx n src in
    let out = Bytes.create n in
    for i = 0 to (n / 4) - 1 do
      let x = Int32.float_of_bits (Bytes.get_int32_le s (4 * i)) in
      let v = if Float.is_nan x then Int32.min_int else Int32.of_float x in
      Bytes.set_int32_le out (4 * i) v
    done;
    dst_vec ctx dst out
  | Opcode.Cvtdq2pd, [ dst; src ] ->
    let s = src_vec ctx 16 src in
    let n = Int.max 16 (vec_width t) in
    let out = Bytes.make n '\000' in
    for i = 0 to (n / 8) - 1 do
      Bytes.set_int64_le out (8 * i)
        (Int64.bits_of_float (Int32.to_float (Bytes.get_int32_le s (4 * i))))
    done;
    dst_vec ctx dst out
  | Opcode.Cvtps2pd, [ dst; src ] ->
    let s = src_vec ctx 16 src in
    let n = Int.max 16 (vec_width t) in
    let out = Bytes.make n '\000' in
    for i = 0 to (n / 8) - 1 do
      let x = Int32.float_of_bits (daz32 ctx (Bytes.get_int32_le s (4 * i))) in
      Bytes.set_int64_le out (8 * i) (Int64.bits_of_float x)
    done;
    dst_vec ctx dst out
  | Opcode.Cvtpd2ps, [ dst; src ] ->
    let n = vec_width t in
    let s = src_vec ctx n src in
    let out = Bytes.make 16 '\000' in
    for i = 0 to (n / 8) - 1 do
      let x = Int64.float_of_bits (daz64 ctx (Bytes.get_int64_le s (8 * i))) in
      Bytes.set_int32_le out (4 * i) (ftz32 ctx (Int32.bits_of_float x))
    done;
    dst_vec ctx dst out
  (* ---------------- shuffles ---------------- *)
  | Opcode.Shufp p, _ ->
    let n = vec_width t in
    let dst, a, b, imm = vec_sources_imm ctx n t in
    let out = Bytes.create n in
    (match p with
    | Opcode.Ps ->
      let sel src k = Bytes.get_int32_le src (4 * ((imm lsr (2 * k)) land 3)) in
      Bytes.set_int32_le out 0 (sel a 0);
      Bytes.set_int32_le out 4 (sel a 1);
      Bytes.set_int32_le out 8 (sel b 2);
      Bytes.set_int32_le out 12 (sel b 3);
      if n = 32 then Bytes.blit out 0 out 16 16
    | _ ->
      let sel src k = Bytes.get_int64_le src (8 * ((imm lsr k) land 1)) in
      Bytes.set_int64_le out 0 (sel a 0);
      Bytes.set_int64_le out 8 (sel b 1);
      if n = 32 then Bytes.blit out 0 out 16 16);
    dst_vec ctx dst out
  | Opcode.(Unpckl p | Unpckh p), _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let high = match t.opcode with Opcode.Unpckh _ -> true | _ -> false in
    let out = Bytes.create n in
    (match p with
    | Opcode.Ps ->
      let base = if high then 8 else 0 in
      Bytes.set_int32_le out 0 (Bytes.get_int32_le a base);
      Bytes.set_int32_le out 4 (Bytes.get_int32_le b base);
      Bytes.set_int32_le out 8 (Bytes.get_int32_le a (base + 4));
      Bytes.set_int32_le out 12 (Bytes.get_int32_le b (base + 4));
      if n = 32 then Bytes.blit out 0 out 16 16
    | _ ->
      let base = if high then 8 else 0 in
      Bytes.set_int64_le out 0 (Bytes.get_int64_le a base);
      Bytes.set_int64_le out 8 (Bytes.get_int64_le b base);
      if n = 32 then Bytes.blit out 0 out 16 16);
    dst_vec ctx dst out
  | Opcode.(Punpckl lane | Punpckh lane), _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let lb = Opcode.int_lane_bytes lane in
    let high = match t.opcode with Opcode.Punpckh _ -> true | _ -> false in
    let out = Bytes.create n in
    let half = 8 in
    let base = if high then half else 0 in
    let k = ref 0 in
    let i = ref 0 in
    while !k < 16 do
      Bytes.blit a (base + (!i * lb)) out !k lb;
      Bytes.blit b (base + (!i * lb)) out (!k + lb) lb;
      k := !k + (2 * lb);
      incr i
    done;
    if n = 32 then Bytes.blit out 0 out 16 16;
    dst_vec ctx dst out
  | Opcode.Pshufd, _ ->
    let n = vec_width t in
    let dst, _, b, imm = vec_sources_imm ctx n t in
    let out = Bytes.create n in
    for i = 0 to 3 do
      Bytes.set_int32_le out (4 * i)
        (Bytes.get_int32_le b (4 * ((imm lsr (2 * i)) land 3)))
    done;
    if n = 32 then Bytes.blit out 0 out 16 16;
    dst_vec ctx dst out
  | Opcode.Pshufb, _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let out = Bytes.create n in
    for i = 0 to Int.min n 16 - 1 do
      let sel = Char.code (Bytes.get b i) in
      if sel land 0x80 <> 0 then Bytes.set out i '\000'
      else Bytes.set out i (Bytes.get a (sel land 0x0F))
    done;
    if n = 32 then Bytes.blit out 0 out 16 16;
    dst_vec ctx dst out
  | Opcode.Palignr, _ ->
    let n = vec_width t in
    let dst, a, b, imm = vec_sources_imm ctx n t in
    (* concat a:b, shift right by imm bytes, take low 16 *)
    let cat = Bytes.create 32 in
    Bytes.blit b 0 cat 0 16;
    Bytes.blit a 0 cat 16 16;
    let out = Bytes.make n '\000' in
    for i = 0 to 15 do
      let j = i + imm in
      if j < 32 then Bytes.set out i (Bytes.get cat j)
    done;
    if n = 32 then Bytes.blit out 0 out 16 16;
    dst_vec ctx dst out
  | Opcode.(Pslldq | Psrldq), [ dst; Operand.Imm i ] ->
    let n = vec_width t in
    let a = src_vec ctx n dst in
    let shift = Int64.to_int i land 0xFF in
    let out = Bytes.make n '\000' in
    for k = 0 to 15 do
      let j = if t.opcode = Opcode.Pslldq then k - shift else k + shift in
      if j >= 0 && j < 16 then Bytes.set out k (Bytes.get a j)
    done;
    if n = 32 then Bytes.blit out 0 out 16 16;
    dst_vec ctx dst out
  | Opcode.(Packss lane | Packus lane), _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let signed = match t.opcode with Opcode.Packss _ -> true | _ -> false in
    let out = Bytes.create n in
    let src_bytes = Opcode.int_lane_bytes lane in
    let dst_bytes = src_bytes / 2 in
    let clamp v =
      if signed then
        let lo = Int64.neg (Int64.shift_left 1L ((8 * dst_bytes) - 1)) in
        let hi = Int64.sub (Int64.shift_left 1L ((8 * dst_bytes) - 1)) 1L in
        if Int64.compare v lo < 0 then lo else if Int64.compare v hi > 0 then hi else v
      else
        let hi = Int64.sub (Int64.shift_left 1L (8 * dst_bytes)) 1L in
        if Int64.compare v 0L < 0 then 0L else if Int64.compare v hi > 0 then hi else v
    in
    let lanes_per_src = 16 / src_bytes in
    let get src i =
      let raw =
        match lane with
        | Opcode.I16 -> Int64.of_int (Bytes.get_uint16_le src (2 * i))
        | _ -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le src (4 * i))) 0xFFFFFFFFL
      in
      lane_sign_extend lane raw
    in
    let set i v =
      match lane with
      | Opcode.I16 -> Bytes.set out i (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
      | _ -> Bytes.set_uint16_le out (2 * i) (Int64.to_int (Int64.logand v 0xFFFFL))
    in
    for i = 0 to lanes_per_src - 1 do
      set i (clamp (get a i));
      set (lanes_per_src + i) (clamp (get b i))
    done;
    if n = 32 then Bytes.blit out 0 out 16 16;
    dst_vec ctx dst out
  | Opcode.Blendp p, _ ->
    let n = vec_width t in
    let dst, a, b, imm = vec_sources_imm ctx n t in
    let lane_bytes = if p = Opcode.Ps then 4 else 8 in
    let out = Bytes.copy a in
    for i = 0 to (n / lane_bytes) - 1 do
      if (imm lsr i) land 1 = 1 then
        Bytes.blit b (i * lane_bytes) out (i * lane_bytes) lane_bytes
    done;
    dst_vec ctx dst out
  (* ---------------- integer vector ---------------- *)
  | Opcode.(Padd lane | Psub lane), _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let f x y =
      if (match t.opcode with Opcode.Padd _ -> true | _ -> false) then Int64.add x y
      else Int64.sub x y
    in
    dst_vec ctx dst (int_lanes lane n f a b)
  | Opcode.Pmull lane, _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    dst_vec ctx dst (int_lanes lane n Int64.mul a b)
  | Opcode.Pmuludq, _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let out = Bytes.create n in
    for i = 0 to (n / 16) - 1 do
      for j = 0 to 1 do
        let off = (16 * i) + (8 * j) in
        let x = Int64.logand (Int64.of_int32 (Bytes.get_int32_le a off)) 0xFFFFFFFFL in
        let y = Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xFFFFFFFFL in
        Bytes.set_int64_le out off (Int64.mul x y)
      done
    done;
    dst_vec ctx dst out
  | Opcode.Pmaddwd, _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let out = Bytes.create n in
    for i = 0 to (n / 4) - 1 do
      let g src k =
        Int64.to_int (Width.sign_extend Width.W (Int64.of_int (Bytes.get_uint16_le src k)))
      in
      let v = (g a (4 * i) * g b (4 * i)) + (g a ((4 * i) + 2) * g b ((4 * i) + 2)) in
      Bytes.set_int32_le out (4 * i) (Int32.of_int v)
    done;
    dst_vec ctx dst out
  | Opcode.(Pand | Pandn | Por | Pxor), _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let f x y =
      match t.opcode with
      | Opcode.Pand -> Int64.logand x y
      | Opcode.Pandn -> Int64.logand (Int64.lognot x) y
      | Opcode.Por -> Int64.logor x y
      | _ -> Int64.logxor x y
    in
    dst_vec ctx dst (map_lanes64 ctx n (fun _ x y -> f x y) a b)
  | Opcode.(Pcmpeq lane | Pcmpgt lane), _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let eq = match t.opcode with Opcode.Pcmpeq _ -> true | _ -> false in
    let f x y =
      let sx = lane_sign_extend lane x and sy = lane_sign_extend lane y in
      let hold = if eq then Int64.equal sx sy else Int64.compare sx sy > 0 in
      if hold then -1L else 0L
    in
    dst_vec ctx dst (int_lanes lane n f a b)
  | Opcode.(Pmaxs lane | Pmins lane | Pmaxu lane | Pminu lane), _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let f x y =
      match t.opcode with
      | Opcode.Pmaxs _ ->
        if Int64.compare (lane_sign_extend lane x) (lane_sign_extend lane y) > 0 then x else y
      | Opcode.Pmins _ ->
        if Int64.compare (lane_sign_extend lane x) (lane_sign_extend lane y) < 0 then x else y
      | Opcode.Pmaxu _ -> if Int64.unsigned_compare x y > 0 then x else y
      | _ -> if Int64.unsigned_compare x y < 0 then x else y
    in
    dst_vec ctx dst (int_lanes lane n f a b)
  | Opcode.Pabs lane, [ dst; src ] ->
    let n = vec_width t in
    let s = src_vec ctx n src in
    let f x _ =
      let sx = lane_sign_extend lane x in
      if Int64.compare sx 0L < 0 then Int64.neg sx else sx
    in
    dst_vec ctx dst (int_lanes lane n f s s)
  | Opcode.Pavg lane, _ ->
    let n = vec_width t in
    let dst, a, b = vec_sources ctx n t in
    let f x y = Int64.shift_right_logical (Int64.add (Int64.add x y) 1L) 1 in
    dst_vec ctx dst (int_lanes lane n f a b)
  | Opcode.(Psll lane | Psrl lane | Psra lane), _ -> (
    let n = vec_width t in
    match t.operands with
    | [ _dst; cnt ] | [ _dst; _; cnt ] ->
      let count =
        match cnt with
        | Operand.Imm v -> Int64.to_int v land 0xFF
        | _ ->
          let c = src_vec ctx 16 cnt in
          Int64.to_int (Int64.logand (Bytes.get_int64_le c 0) 0xFFL)
      in
      let a =
        match t.operands with
        | [ d; _ ] -> src_vec ctx n d
        | [ _; s; _ ] when not (Operand.is_imm cnt) -> src_vec ctx n s
        | [ _; s1; _ ] -> src_vec ctx n s1
        | _ -> bad t
      in
      let lane_bits = 8 * Opcode.int_lane_bytes lane in
      let f x _ =
        if count >= lane_bits then
          match t.opcode with
          | Opcode.Psra _ ->
            if Int64.compare (lane_sign_extend lane x) 0L < 0 then -1L else 0L
          | _ -> 0L
        else
          match t.opcode with
          | Opcode.Psll _ -> Int64.shift_left x count
          | Opcode.Psrl _ -> Int64.shift_right_logical x count
          | _ -> Int64.shift_right (lane_sign_extend lane x) count
      in
      dst_vec ctx (List.hd t.operands) (int_lanes lane n f a a)
    | _ -> bad t)
  | Opcode.Pmovmskb, [ dst; src ] ->
    let n = vec_width t in
    let s = src_vec ctx n src in
    let r = ref 0L in
    for i = 0 to Int.min n 16 - 1 do
      if Char.code (Bytes.get s i) land 0x80 <> 0 then
        r := Int64.logor !r (Int64.shift_left 1L i)
    done;
    dst_int ctx Width.D dst !r
  | Opcode.Movmsk p, [ dst; src ] ->
    let n = vec_width t in
    let s = src_vec ctx n src in
    let lane_bytes = if p = Opcode.Ps then 4 else 8 in
    let r = ref 0L in
    for i = 0 to (n / lane_bytes) - 1 do
      let sign =
        if lane_bytes = 4 then
          Int32.compare (Bytes.get_int32_le s (4 * i)) 0l < 0
        else Int64.compare (Bytes.get_int64_le s (8 * i)) 0L < 0
      in
      if sign then r := Int64.logor !r (Int64.shift_left 1L i)
    done;
    dst_int ctx Width.D dst !r
  | Opcode.Ptest, [ a; b ] ->
    let n = vec_width t in
    let va = src_vec ctx n a and vb = src_vec ctx n b in
    let and_zero = ref true and andn_zero = ref true in
    for i = 0 to (n / 8) - 1 do
      let x = Bytes.get_int64_le va (8 * i) and y = Bytes.get_int64_le vb (8 * i) in
      if not (Int64.equal (Int64.logand x y) 0L) then and_zero := false;
      if not (Int64.equal (Int64.logand (Int64.lognot x) y) 0L) then andn_zero := false
    done;
    st.flags.zf <- !and_zero;
    st.flags.cf <- !andn_zero;
    st.flags.of_ <- false;
    st.flags.sf <- false;
    st.flags.pf <- false
  | Opcode.Pextr lane, [ dst; src; Operand.Imm i ] ->
    let s = src_vec ctx 16 src in
    let lb = Opcode.int_lane_bytes lane in
    let idx = Int64.to_int i land ((16 / lb) - 1) in
    let v =
      match lane with
      | Opcode.I8 -> Int64.of_int (Char.code (Bytes.get s idx))
      | Opcode.I16 -> Int64.of_int (Bytes.get_uint16_le s (2 * idx))
      | Opcode.I32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le s (4 * idx))) 0xFFFFFFFFL
      | Opcode.I64 -> Bytes.get_int64_le s (8 * idx)
    in
    dst_int ctx (Width.of_bytes (Int.max 4 lb)) dst v
  | Opcode.Pinsr lane, [ dst; src; Operand.Imm i ] ->
    let d = src_vec ctx 16 dst in
    let lb = Opcode.int_lane_bytes lane in
    let idx = Int64.to_int i land ((16 / lb) - 1) in
    let v = src_int ctx (Width.of_bytes (Int.max 1 lb)) src in
    let out = Bytes.copy d in
    (match lane with
    | Opcode.I8 -> Bytes.set out idx (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
    | Opcode.I16 -> Bytes.set_uint16_le out (2 * idx) (Int64.to_int (Int64.logand v 0xFFFFL))
    | Opcode.I32 -> Bytes.set_int32_le out (4 * idx) (Int64.to_int32 v)
    | Opcode.I64 -> Bytes.set_int64_le out (8 * idx) v);
    dst_vec ctx dst out
  (* ---------------- AVX lane ops ---------------- *)
  | Opcode.Vbroadcast p, [ dst; src ] ->
    let lane = if p = Opcode.Ss then 4 else 8 in
    let v =
      match src with
      | Operand.Mem m -> read_mem ctx (effective_address ctx m) lane
      | _ -> Bytes.sub (src_vec ctx 16 src) 0 lane
    in
    let n = match dst with Operand.Reg r -> Reg.byte_size r | _ -> 16 in
    let out = Bytes.create n in
    let k = ref 0 in
    while !k < n do
      Bytes.blit v 0 out !k lane;
      k := !k + lane
    done;
    dst_vec ctx dst out
  | Opcode.Vinsertf128, [ dst; s1; s2; Operand.Imm i ] ->
    let a = src_vec ctx 32 s1 in
    let b = src_vec ctx 16 s2 in
    let out = Bytes.copy a in
    let off = if Int64.equal (Int64.logand i 1L) 0L then 0 else 16 in
    Bytes.blit b 0 out off 16;
    dst_vec ctx dst out
  | Opcode.Vextractf128, [ dst; src; Operand.Imm i ] ->
    let a = src_vec ctx 32 src in
    let off = if Int64.equal (Int64.logand i 1L) 0L then 0 else 16 in
    dst_vec ctx dst (Bytes.sub a off 16)
  | Opcode.Vperm2f128, [ dst; s1; s2; Operand.Imm i ] ->
    let a = src_vec ctx 32 s1 and b = src_vec ctx 32 s2 in
    let sel ctl =
      if ctl land 8 <> 0 then Bytes.make 16 '\000'
      else
        let src = if ctl land 2 = 0 then a else b in
        Bytes.sub src (if ctl land 1 = 0 then 0 else 16) 16
    in
    let imm = Int64.to_int i in
    let out = Bytes.create 32 in
    Bytes.blit (sel imm) 0 out 0 16;
    Bytes.blit (sel (imm lsr 4)) 0 out 16 16;
    dst_vec ctx dst out
  | Opcode.Vzeroupper, [] ->
    for i = 0 to 15 do
      Machine_state.set_vec_u64 st i ~lane:2 0L;
      Machine_state.set_vec_u64 st i ~lane:3 0L
    done
  | _ -> bad t
