(** Basic-block generator combinators.

    Application corpora are synthesised from weighted mixtures of code
    patterns ("snippets") characteristic of each domain. The combinators
    track two register invariants so that generated blocks behave like
    real compiler output under the profiler:

    - {b pointer registers} still hold the initial register value (plus a
      bounded offset) and may be used as memory bases; once a register is
      clobbered by a computation it moves to the scratch pool;
    - {b known-nonzero} values are required for divisors.

    Memory operands default to access-size alignment (compilers align
    data); a small probability of odd displacements reproduces the
    paper's 0.18% misaligned-access drop rate. *)

open X86
open X86.Builder

type ctx = {
  rng : Bstats.Rng.t;
  mutable acc : Inst.t list;  (** reversed *)
  mutable pointers : Reg.t list;  (** usable as memory bases *)
  mutable scratch : Reg.t list;  (** clobbered, small/unknown values *)
  mutable vecs : Reg.t list;  (** vector registers in play *)
  mutable len : int;
}

let all_pointers =
  Reg.[ rdi; rsi; rbx; rbp; r12; r13; r14; r15; rcx; r8; r9 ]

let all_scratch = Reg.[ rax; rdx; r10; r11 ]

let create rng =
  {
    rng;
    acc = [];
    pointers = all_pointers;
    scratch = all_scratch;
    vecs = List.init 16 Reg.xmm;
    len = 0;
  }

let emit ctx inst =
  ctx.acc <- inst :: ctx.acc;
  ctx.len <- ctx.len + 1

let finish ctx = List.rev ctx.acc

(* Pick a pointer register (still valid as a base). *)
let pointer ctx =
  match ctx.pointers with
  | [] -> Reg.rsp
  | ps -> Bstats.Rng.choose ctx.rng ps

(* Pick a scratch register, possibly demoting a pointer if running out. *)
let scratch ctx =
  match ctx.scratch with
  | [] -> (
    match ctx.pointers with
    | [] -> Reg.rax
    | p :: rest ->
      ctx.pointers <- rest;
      ctx.scratch <- [ p ];
      p)
  | ss -> Bstats.Rng.choose ctx.rng ss

(* Clobbering a pointer register demotes it to scratch. *)
let clobber ctx r =
  if List.exists (Reg.equal r) ctx.pointers then begin
    ctx.pointers <- List.filter (fun p -> not (Reg.equal p r)) ctx.pointers;
    ctx.scratch <- r :: ctx.scratch
  end

let vreg ctx = Bstats.Rng.choose ctx.rng ctx.vecs
let yreg ctx = match vreg ctx with Reg.Xmm i -> Reg.Ymm i | r -> r

let narrow w r =
  match r with Reg.Gpr (g, _) -> Reg.Gpr (g, w) | r -> r

(* Aligned displacement for an access of [size] bytes; occasionally odd
   (the misaligned-drop knob). *)
let disp ctx ?(misalign_p = 0.002) ~size () =
  let slots = 4096 / size in
  let d = size * (Bstats.Rng.int ctx.rng (min slots 256) - 32) in
  if misalign_p > 0.0 && Bstats.Rng.bernoulli ctx.rng misalign_p then d + (size / 2) + 1
  else d

(* A simple base+disp memory operand. *)
let mem_bd ctx ?misalign_p ~size () =
  let base = pointer ctx in
  mb ~base ~disp:(disp ctx ?misalign_p ~size ()) ()

(* Absolute lookup table, gzip-crc style: table(, idx, scale). The table
   address is aligned to the element size. *)
let mem_table ctx ~index ~size () =
  let table = 0x40000 + (size * Bstats.Rng.int ctx.rng 4096) in
  mb ~index ~scale:size ~disp:table ()

let width ctx = Bstats.Rng.choose_weighted ctx.rng
    [ (0.15, Width.B); (0.05, Width.W); (0.35, Width.D); (0.45, Width.Q) ]

(* --- scalar snippets -------------------------------------------------- *)

(* Dependent ALU chain on one register. *)
let alu_chain ctx =
  let r0 = scratch ctx in
  let n = 1 + Bstats.Rng.int ctx.rng 3 in
  for _ = 1 to n do
    let src = Bstats.Rng.choose ctx.rng (ctx.scratch @ ctx.pointers) in
    let op = Bstats.Rng.choose ctx.rng [ add; sub; and_; or_; xor ] in
    if Bstats.Rng.bernoulli ctx.rng 0.4 then
      emit ctx (op (r r0) (i (Bstats.Rng.int ctx.rng 256)))
    else emit ctx (op (r r0) (r src))
  done

(* Immediate-heavy scalar arithmetic on a fresh register. *)
let imm_alu ctx =
  let r0 = scratch ctx in
  let w = width ctx in
  let w = if Width.equal w Width.B then Width.D else w in
  emit ctx (mov ~w (r (narrow w r0)) (i (Bstats.Rng.int ctx.rng 4096)));
  emit ctx (add ~w (r (narrow w r0)) (i (1 + Bstats.Rng.int ctx.rng 64)))

(* Plain load into a scratch register. *)
let load ctx =
  let dst = scratch ctx in
  let w = width ctx in
  let m = mem_bd ctx ~size:(Width.bytes w) () in
  if Width.bytes w < 4 then
    emit ctx (movzx ~from:w ~w:Width.D (r (narrow Width.D dst)) m)
  else emit ctx (mov ~w (r (narrow w dst)) m)

(* Load-op: ALU with a memory source. *)
let load_op ctx =
  let dst = scratch ctx in
  let w = Bstats.Rng.choose ctx.rng [ Width.D; Width.Q ] in
  let op = Bstats.Rng.choose ctx.rng [ add; sub; and_; or_; xor ] in
  emit ctx (op ~w (r (narrow w dst)) (mem_bd ctx ~size:(Width.bytes w) ()))

(* Store a register. *)
let store ctx ?misalign_p () =
  let src = Bstats.Rng.choose ctx.rng (ctx.scratch @ ctx.pointers) in
  let w = Bstats.Rng.choose ctx.rng [ Width.B; Width.D; Width.Q ] in
  emit ctx (mov ~w (mem_bd ctx ?misalign_p ~size:(Width.bytes w) ()) (r (narrow w src)))

(* Read-modify-write on memory. *)
let rmw_mem ctx =
  let w = Bstats.Rng.choose ctx.rng [ Width.D; Width.Q ] in
  let op = Bstats.Rng.choose ctx.rng [ add; sub; and_; or_ ] in
  emit ctx (op ~w (mem_bd ctx ~size:(Width.bytes w) ()) (i (1 + Bstats.Rng.int ctx.rng 32)))

(* Store an immediate to memory (OSACA's parser famously drops these). *)
let store_imm ctx =
  let w = Bstats.Rng.choose ctx.rng [ Width.D; Width.Q ] in
  emit ctx (mov ~w (mem_bd ctx ~size:(Width.bytes w) ()) (i (Bstats.Rng.int ctx.rng 256)))

(* Compare + flag consumer (setcc or cmov). *)
let cmp_flags ctx =
  let a = Bstats.Rng.choose ctx.rng (ctx.pointers @ ctx.scratch) in
  let b = Bstats.Rng.choose ctx.rng (ctx.pointers @ ctx.scratch) in
  emit ctx (cmp (r a) (r b));
  let c = Bstats.Rng.choose ctx.rng Cond.[ E; NE; L; GE; B_; A ] in
  if Bstats.Rng.bernoulli ctx.rng 0.5 then begin
    let dst = scratch ctx in
    emit ctx (set c (r (narrow Width.B dst)));
    emit ctx (movzx ~from:Width.B ~w:Width.D (r (narrow Width.D dst)) (r (narrow Width.B dst)))
  end
  else begin
    let dst = scratch ctx in
    emit ctx (cmov c (r dst) (r (Bstats.Rng.choose ctx.rng ctx.pointers)))
  end

(* test reg,reg — extremely common compiler idiom. *)
let test_reg ctx =
  let a = Bstats.Rng.choose ctx.rng (ctx.scratch @ ctx.pointers) in
  emit ctx (test (r a) (r a))

(* Bit manipulation mix. *)
let bit_mix ctx =
  let r0 = scratch ctx in
  let n = 1 + Bstats.Rng.int ctx.rng 3 in
  for _ = 1 to n do
    match Bstats.Rng.int ctx.rng 8 with
    | 0 -> emit ctx (shr (r r0) (i (1 + Bstats.Rng.int ctx.rng 31)))
    | 1 -> emit ctx (shl (r r0) (i (1 + Bstats.Rng.int ctx.rng 31)))
    | 2 -> emit ctx (rol (r r0) (i (1 + Bstats.Rng.int ctx.rng 31)))
    | 3 -> emit ctx (and_ (r r0) (i (Bstats.Rng.int ctx.rng 0xFFFF)))
    | 4 -> emit ctx (xor (r r0) (r (Bstats.Rng.choose ctx.rng ctx.pointers)))
    | 5 -> emit ctx (popcnt (r r0) (r r0))
    | 6 -> emit ctx (tzcnt (r r0) (r r0))
    | _ -> emit ctx (not_ (r r0))
  done

(* CRC/hash-style table lookup: byte load, zero-extend, table index. *)
let table_lookup ctx =
  let idx = scratch ctx in
  let acc = scratch ctx in
  emit ctx (movzx ~from:Width.B ~w:Width.D (r (narrow Width.D idx))
              (mem_bd ctx ~size:1 ()));
  emit ctx (xor (r acc) (mem_table ctx ~index:(narrow Width.Q idx) ~size:8 ()))

(* Pointer increment (loop induction). *)
let pointer_bump ctx =
  let p = pointer ctx in
  (* cache-line-multiple strides keep later accesses through this base at
     their natural alignment, as real strip-mined kernels do *)
  let step = Bstats.Rng.choose ctx.rng [ 64; 128 ] in
  emit ctx (add (r p) (i step))

(* Canonical unsigned 32-bit division: xor edx,edx; div ecx. *)
let div_pattern ctx =
  let divisor = pointer ctx in
  emit ctx (xor ~w:Width.D (r Reg.edx) (r Reg.edx));
  emit ctx (div ~w:Width.D (r (narrow Width.D divisor)));
  clobber ctx Reg.rax;
  clobber ctx Reg.rdx

let mul_pattern ctx =
  let dst = scratch ctx in
  if Bstats.Rng.bernoulli ctx.rng 0.5 then
    emit ctx (imul (r dst) (r (Bstats.Rng.choose ctx.rng ctx.pointers)))
  else emit ctx (imul3 (r dst) (r (Bstats.Rng.choose ctx.rng ctx.pointers))
                   (i (3 + Bstats.Rng.int ctx.rng 61)))

(* Multi-precision add chain (OpenSSL bignum). *)
let adc_bignum ctx =
  let p = pointer ctx in
  let q = pointer ctx in
  let t = scratch ctx in
  emit ctx (mov (r t) (mb ~base:q ~disp:0 ()));
  emit ctx (add (r t) (mb ~base:p ~disp:0 ()));
  emit ctx (mov (mb ~base:p ~disp:0 ()) (r t));
  for k = 1 to 1 + Bstats.Rng.int ctx.rng 3 do
    let t = scratch ctx in
    emit ctx (mov (r t) (mb ~base:q ~disp:(8 * k) ()));
    emit ctx (adc (r t) (mb ~base:p ~disp:(8 * k) ()));
    emit ctx (mov (mb ~base:p ~disp:(8 * k) ()) (r t))
  done

(* Byte scan (strcmp/memchr flavour). *)
let byte_scan ctx =
  let p = pointer ctx in
  let t = scratch ctx in
  emit ctx (movzx ~from:Width.B ~w:Width.D (r (narrow Width.D t))
              (mb ~base:p ~disp:(Bstats.Rng.int ctx.rng 64) ()));
  emit ctx (cmp ~w:Width.B (r (narrow Width.B t)) (i (Bstats.Rng.int ctx.rng 128)));
  let dst = scratch ctx in
  emit ctx (set Cond.E (r (narrow Width.B dst)))

(* Stack spill/reload pair. *)
let stack_spill ctx =
  let src = Bstats.Rng.choose ctx.rng (ctx.pointers @ ctx.scratch) in
  let slot = 8 * Bstats.Rng.int ctx.rng 16 in
  emit ctx (mov (mb ~base:Reg.rsp ~disp:slot ()) (r src));
  let dst = scratch ctx in
  emit ctx (mov (r dst) (mb ~base:Reg.rsp ~disp:slot ()))

(* Register-spill burst: consecutive stores of distinct registers, the
   shape of function prologues and struct initialisation. *)
let store_burst ctx =
  let base = pointer ctx in
  let n = 2 + Bstats.Rng.int ctx.rng 4 in
  let start = 8 * Bstats.Rng.int ctx.rng 32 in
  List.iteri
    (fun k src ->
      emit ctx (mov (mb ~base ~disp:(start + (8 * k)) ()) (r src)))
    (List.filteri (fun i _ -> i < n) (ctx.scratch @ ctx.pointers))

(* Reload burst: consecutive loads into distinct registers (callee-saved
   restores, field gathers). *)
let load_burst ctx =
  let base = pointer ctx in
  let n = 2 + Bstats.Rng.int ctx.rng 4 in
  let start = 8 * Bstats.Rng.int ctx.rng 32 in
  for k = 0 to n - 1 do
    let dst = scratch ctx in
    emit ctx (mov (r dst) (mb ~base ~disp:(start + (8 * k)) ()))
  done

(* Address computation with lea. *)
let lea_addr ctx =
  let dst = scratch ctx in
  let base = pointer ctx in
  let index = Bstats.Rng.choose ctx.rng ctx.pointers in
  emit ctx
    (lea (r dst)
       (mb ~base ~index ~scale:(Bstats.Rng.choose ctx.rng [ 1; 2; 4; 8 ])
          ~disp:(Bstats.Rng.int ctx.rng 256) ()))

(* Pointer chase: load a 64-bit pointer and dereference it. On the real
   and the simulated harness alike this is usually unmappable (the loaded
   fill pattern is not a canonical address), so blocks containing it are
   the ones the monitor gives up on. *)
let pointer_chase ctx =
  let p = pointer ctx in
  let t = scratch ctx in
  emit ctx (mov (r t) (mb ~base:p ~disp:(8 * Bstats.Rng.int ctx.rng 8) ()));
  emit ctx (mov (r t) (mb ~base:t ~disp:(8 * Bstats.Rng.int ctx.rng 4) ()))

(* Page walker: strides so far per copy that the monitor exceeds its
   fault budget under large unrolling. *)
let page_walker ctx =
  let p = pointer ctx in
  let t = scratch ctx in
  emit ctx (mov (r t) (mb ~base:p ()));
  emit ctx (add (r p) (i (4096 + (4096 * Bstats.Rng.int ctx.rng 4))))

(* --- vector snippets -------------------------------------------------- *)

let vec_load ctx ?(ymm = false) ?misalign_p () =
  let dst = if ymm then yreg ctx else vreg ctx in
  let size = if ymm then 32 else 16 in
  let m = mem_bd ctx ?misalign_p ~size () in
  let mov_op =
    Bstats.Rng.choose ctx.rng [ movaps; movups; movdqa ]
  in
  emit ctx (mov_op (r dst) m)

let vec_store ctx ?(ymm = false) () =
  let src = if ymm then yreg ctx else vreg ctx in
  let size = if ymm then 32 else 16 in
  emit ctx (movaps (mem_bd ctx ~size ()) (r src))

(* y = a*x + y with packed single/double. *)
let axpy ctx ?(ymm = false) () =
  let acc = if ymm then yreg ctx else vreg ctx in
  let x = if ymm then yreg ctx else vreg ctx in
  let size = if ymm then 32 else 16 in
  emit ctx (movups (r x) (mem_bd ctx ~size ()));
  if Bstats.Rng.bernoulli ctx.rng 0.5 then begin
    emit ctx (mulps (r x) (r (if ymm then yreg ctx else vreg ctx)));
    emit ctx (addps (r acc) (r x))
  end
  else emit ctx (vfmadd231ps (r acc) (r x) (r (if ymm then yreg ctx else vreg ctx)))

(* FMA-rich GEMM microkernel step (AVX2). *)
let fma_step ctx ~ymm =
  let a = if ymm then yreg ctx else vreg ctx in
  let b = if ymm then yreg ctx else vreg ctx in
  let c = if ymm then yreg ctx else vreg ctx in
  if Bstats.Rng.bernoulli ctx.rng 0.4 then
    emit ctx (vfmadd231ps (r c) (r a) (mem_bd ctx ~size:(if ymm then 32 else 16) ()))
  else emit ctx (vfmadd231ps (r c) (r a) (r b))

(* Register-only y += a*x (no memory operand). *)
let axpy_reg ctx =
  let acc = vreg ctx in
  let x = vreg ctx in
  if Bstats.Rng.bernoulli ctx.rng 0.5 then begin
    emit ctx (mulps (r x) (r (vreg ctx)));
    emit ctx (addps (r acc) (r x))
  end
  else emit ctx (vfmadd231ps (r acc) (r x) (r (vreg ctx)))

(* Register-only scalar double arithmetic. *)
let scalar_fp_reg ctx =
  let a = vreg ctx in
  let op = Bstats.Rng.choose ctx.rng [ addsd; mulsd; subsd ] in
  emit ctx (op (r a) (r (vreg ctx)))

(* Scalar double arithmetic (Eigen-style). *)
let scalar_fp ctx =
  let a = vreg ctx in
  let op = Bstats.Rng.choose ctx.rng [ addsd; mulsd; subsd ] in
  if Bstats.Rng.bernoulli ctx.rng 0.5 then
    emit ctx (op (r a) (mem_bd ctx ~size:8 ()))
  else emit ctx (op (r a) (r (vreg ctx)))

(* Horizontal reduction. *)
let reduce ctx =
  let a = vreg ctx in
  emit ctx (haddps (r a) (r a));
  emit ctx (haddps (r a) (r a))

(* ReLU / clamping with min/max against a zeroed register. *)
let relu ctx =
  let z = vreg ctx in
  let x = vreg ctx in
  emit ctx (xorps (r z) (r z));
  emit ctx (maxps (r x) (r z))

(* int<->float conversion mix. *)
let cvt_mix ctx =
  let x = vreg ctx in
  let t = scratch ctx in
  if Bstats.Rng.bernoulli ctx.rng 0.5 then begin
    emit ctx (cvtsi2ss ~w:Width.D (r x) (r (narrow Width.D t)));
    emit ctx (mulss (r x) (r (vreg ctx)))
  end
  else begin
    emit ctx (cvtdq2ps (r x) (r (vreg ctx)));
    emit ctx (addps (r x) (r (vreg ctx)))
  end

(* Shuffle/permute traffic. *)
let shuffle_mix ctx =
  let a = vreg ctx in
  let b = vreg ctx in
  match Bstats.Rng.int ctx.rng 4 with
  | 0 -> emit ctx (pshufd (r a) (r b) (i (Bstats.Rng.int ctx.rng 256)))
  | 1 -> emit ctx (shufps (r a) (r b) (i (Bstats.Rng.int ctx.rng 256)))
  | 2 -> emit ctx (unpcklps (r a) (r b))
  | _ -> emit ctx (punpckldq (r a) (r b))

(* Integer SIMD (codec flavour): multiply-accumulate, pack, average. *)
let int_simd ctx =
  let a = vreg ctx in
  let b = vreg ctx in
  match Bstats.Rng.int ctx.rng 6 with
  | 0 -> emit ctx (pmaddwd (r a) (r b))
  | 1 -> emit ctx (paddw (r a) (mem_bd ctx ~size:16 ()))
  | 2 -> emit ctx (packsswb (r a) (r b))
  | 3 -> emit ctx (Builder.mk (Opcode.Pavg Opcode.I8) [ r a; r b ])
  | 4 -> emit ctx (psubd (r a) (r b))
  | _ -> emit ctx (punpcklbw (r a) (r b))

(* Compare + mask + blend (ray tracing / branchless select). *)
let mask_select ctx =
  let m = vreg ctx in
  let a = vreg ctx in
  let b = vreg ctx in
  emit ctx (Builder.mk (Opcode.Cmp_fp Opcode.Ps) [ r m; r a; i 1 ]);
  emit ctx (andps (r a) (r m));
  emit ctx (Builder.mk (Opcode.Fandn Opcode.Ps) [ r m; r b ]);
  emit ctx (orps (r a) (r m))

(* rsqrt + Newton step (ray normalisation). *)
let rsqrt_ray ctx =
  let x = vreg ctx in
  let t = vreg ctx in
  emit ctx (Builder.mk (Opcode.Rsqrt Opcode.Ps) [ r t; r x ]);
  emit ctx (mulps (r x) (r t));
  emit ctx (mulps (r x) (r t))

(* Move mask to scalar (early-out tests in vectorised code). *)
let movmsk ctx =
  let dst = scratch ctx in
  emit ctx (movmskps (r (narrow Width.D dst)) (r (vreg ctx)))

(* --- block assembly --------------------------------------------------- *)

type snippet = ctx -> unit

(* Build one block from a weighted snippet mixture. *)
let block ~rng ~(mix : (float * snippet) list) ~min_len ~max_len : Inst.t list =
  let ctx = create rng in
  let target = min_len + Bstats.Rng.int rng (max 1 (max_len - min_len + 1)) in
  while ctx.len < target do
    let snippet = Bstats.Rng.choose_weighted ctx.rng mix in
    snippet ctx
  done;
  finish ctx

(* Zipf-ish execution frequency for tracer-less corpora. *)
let zipf_freq rng ~rank =
  let weight = 100_000.0 /. Float.pow (float_of_int (rank + 1)) 0.6 in
  max 1 (int_of_float weight / (1 + Bstats.Rng.int rng 3))
