(** Opcode mnemonics for the modelled x86-64 subset.

    The subset is chosen to cover the instruction mix of the BHive corpus:
    scalar integer ALU and data movement, bit manipulation, widening
    multiply/divide, SSE/SSE2/SSE4 and AVX/AVX2 floating point and integer
    vector operations, and FMA. Control flow opcodes exist only so the
    dynamic tracer can decode whole functions; measured basic blocks never
    contain them (BHive strips block terminators). *)

type fp_prec =
  | Ss  (** scalar single *)
  | Sd  (** scalar double *)
  | Ps  (** packed single *)
  | Pd  (** packed double *)

type int_lane = I8 | I16 | I32 | I64

type t =
  (* Integer data movement *)
  | Mov
  | Movzx of Width.t  (** payload = source width *)
  | Movsx of Width.t  (** payload = source width *)
  | Movsxd
  | Lea
  | Push
  | Pop
  | Xchg
  | Cmov of Cond.t
  | Set of Cond.t
  (* Integer ALU *)
  | Add
  | Sub
  | Adc
  | Sbb
  | And
  | Or
  | Xor
  | Cmp
  | Test
  | Inc
  | Dec
  | Neg
  | Not
  | Shl
  | Shr
  | Sar
  | Rol
  | Ror
  | Shld
  | Shrd
  | Imul_rr  (** two- or three-operand imul *)
  | Mul_1  (** one-operand unsigned widening multiply *)
  | Imul_1  (** one-operand signed widening multiply *)
  | Div
  | Idiv
  | Cdq
  | Cqo
  | Bsf
  | Bsr
  | Popcnt
  | Lzcnt
  | Tzcnt
  | Bswap
  | Bt
  | Bts
  | Btr
  | Btc
  | Andn
  | Blsi
  | Blsr
  | Blsmsk
  | Bextr
  | Crc32
  | Nop
  (* Control flow (tracer only) *)
  | Jmp
  | Jcc of Cond.t
  | Call
  | Ret
  (* Vector data movement *)
  | Movap of fp_prec  (** movaps / movapd (Ps/Pd only) *)
  | Movup of fp_prec  (** movups / movupd (Ps/Pd only) *)
  | Movs_x of fp_prec  (** movss / movsd (Ss/Sd only) *)
  | Movdqa
  | Movdqu
  | Movd  (** 32-bit gpr/mem <-> xmm *)
  | Movq_x  (** 64-bit gpr/mem <-> xmm *)
  | Lddqu
  | Movnt of fp_prec  (** non-temporal store *)
  (* FP arithmetic *)
  | Fadd of fp_prec
  | Fsub of fp_prec
  | Fmul of fp_prec
  | Fdiv of fp_prec
  | Fsqrt of fp_prec
  | Fmin of fp_prec
  | Fmax of fp_prec
  | Fand of fp_prec  (** andps/andpd *)
  | Fandn of fp_prec
  | For_ of fp_prec
  | Fxor of fp_prec  (** xorps/xorpd *)
  | Ucomis of fp_prec  (** Ss/Sd *)
  | Cmp_fp of fp_prec  (** cmpps/cmpss etc., predicate in immediate *)
  | Haddp of fp_prec  (** Ps/Pd *)
  | Round of fp_prec
  | Rcp of fp_prec  (** Ss/Ps *)
  | Rsqrt of fp_prec  (** Ss/Ps *)
  (* FP conversions *)
  | Cvtsi2 of fp_prec  (** Ss/Sd *)
  | Cvt2si of fp_prec * bool  (** bool = truncating; Ss/Sd *)
  | Cvtss2sd
  | Cvtsd2ss
  | Cvtdq2ps
  | Cvtps2dq
  | Cvttps2dq
  | Cvtdq2pd
  | Cvtps2pd
  | Cvtpd2ps
  (* FP shuffles *)
  | Shufp of fp_prec  (** Ps/Pd *)
  | Unpckl of fp_prec  (** Ps/Pd *)
  | Unpckh of fp_prec  (** Ps/Pd *)
  | Movmsk of fp_prec  (** Ps/Pd *)
  | Blendp of fp_prec  (** Ps/Pd, imm mask *)
  (* Integer vector *)
  | Padd of int_lane
  | Psub of int_lane
  | Pmull of int_lane  (** I16/I32 *)
  | Pmuludq
  | Pmaddwd
  | Pand
  | Pandn
  | Por
  | Pxor
  | Pcmpeq of int_lane
  | Pcmpgt of int_lane
  | Pmaxs of int_lane
  | Pmins of int_lane
  | Pmaxu of int_lane
  | Pminu of int_lane
  | Pabs of int_lane  (** I8/I16/I32 *)
  | Pavg of int_lane  (** I8/I16 *)
  | Psll of int_lane  (** I16/I32/I64 *)
  | Psrl of int_lane
  | Psra of int_lane  (** I16/I32 *)
  | Pslldq
  | Psrldq
  | Pshufd
  | Pshufb
  | Palignr
  | Punpckl of int_lane
  | Punpckh of int_lane
  | Packss of int_lane  (** I16/I32 *)
  | Packus of int_lane  (** I16/I32 *)
  | Pmovmskb
  | Ptest
  | Pextr of int_lane  (** xmm lane -> gpr/mem *)
  | Pinsr of int_lane  (** gpr/mem -> xmm lane *)
  (* FMA (AVX2 class) *)
  | Vfmadd of int * fp_prec  (** form 132/213/231 *)
  | Vfmsub of int * fp_prec
  | Vfnmadd of int * fp_prec
  (* AVX lane manipulation *)
  | Vbroadcast of fp_prec  (** Ss/Sd *)
  | Vinsertf128
  | Vextractf128
  | Vperm2f128
  | Vzeroupper

let fp_prec_suffix = function Ss -> "ss" | Sd -> "sd" | Ps -> "ps" | Pd -> "pd"

let int_lane_suffix = function I8 -> "b" | I16 -> "w" | I32 -> "d" | I64 -> "q"

let int_lane_bytes = function I8 -> 1 | I16 -> 2 | I32 -> 4 | I64 -> 8

(* Base mnemonic, without AT&T width suffix and without AVX 'v' prefix. *)
let mnemonic = function
  | Mov -> "mov"
  | Movzx w -> "movz" ^ Width.suffix w
  | Movsx w -> "movs" ^ Width.suffix w
  | Movsxd -> "movslq"
  | Lea -> "lea"
  | Push -> "push"
  | Pop -> "pop"
  | Xchg -> "xchg"
  | Cmov c -> "cmov" ^ Cond.to_string c
  | Set c -> "set" ^ Cond.to_string c
  | Add -> "add"
  | Sub -> "sub"
  | Adc -> "adc"
  | Sbb -> "sbb"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Cmp -> "cmp"
  | Test -> "test"
  | Inc -> "inc"
  | Dec -> "dec"
  | Neg -> "neg"
  | Not -> "not"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Rol -> "rol"
  | Ror -> "ror"
  | Shld -> "shld"
  | Shrd -> "shrd"
  | Imul_rr -> "imul"
  | Mul_1 -> "mul"
  | Imul_1 -> "imul"
  | Div -> "div"
  | Idiv -> "idiv"
  | Cdq -> "cdq"
  | Cqo -> "cqo"
  | Bsf -> "bsf"
  | Bsr -> "bsr"
  | Popcnt -> "popcnt"
  | Lzcnt -> "lzcnt"
  | Tzcnt -> "tzcnt"
  | Bswap -> "bswap"
  | Bt -> "bt"
  | Bts -> "bts"
  | Btr -> "btr"
  | Btc -> "btc"
  | Andn -> "andn"
  | Blsi -> "blsi"
  | Blsr -> "blsr"
  | Blsmsk -> "blsmsk"
  | Bextr -> "bextr"
  | Crc32 -> "crc32"
  | Nop -> "nop"
  | Jmp -> "jmp"
  | Jcc c -> "j" ^ Cond.to_string c
  | Call -> "call"
  | Ret -> "ret"
  | Movap p -> "mova" ^ fp_prec_suffix p
  | Movup p -> "movu" ^ fp_prec_suffix p
  | Movs_x p -> "mov" ^ fp_prec_suffix p
  | Movdqa -> "movdqa"
  | Movdqu -> "movdqu"
  | Movd -> "movd"
  | Movq_x -> "movq"
  | Lddqu -> "lddqu"
  | Movnt p -> "movnt" ^ fp_prec_suffix p
  | Fadd p -> "add" ^ fp_prec_suffix p
  | Fsub p -> "sub" ^ fp_prec_suffix p
  | Fmul p -> "mul" ^ fp_prec_suffix p
  | Fdiv p -> "div" ^ fp_prec_suffix p
  | Fsqrt p -> "sqrt" ^ fp_prec_suffix p
  | Fmin p -> "min" ^ fp_prec_suffix p
  | Fmax p -> "max" ^ fp_prec_suffix p
  | Fand p -> "and" ^ fp_prec_suffix p
  | Fandn p -> "andn" ^ fp_prec_suffix p
  | For_ p -> "or" ^ fp_prec_suffix p
  | Fxor p -> "xor" ^ fp_prec_suffix p
  | Ucomis p -> "ucomis" ^ (match p with Ss -> "s" | _ -> "d")
  | Cmp_fp p -> "cmp" ^ fp_prec_suffix p
  | Haddp p -> "hadd" ^ fp_prec_suffix p
  | Round p -> "round" ^ fp_prec_suffix p
  | Rcp p -> "rcp" ^ fp_prec_suffix p
  | Rsqrt p -> "rsqrt" ^ fp_prec_suffix p
  | Cvtsi2 p -> "cvtsi2" ^ fp_prec_suffix p
  | Cvt2si (p, t) -> "cvt" ^ (if t then "t" else "") ^ fp_prec_suffix p ^ "2si"
  | Cvtss2sd -> "cvtss2sd"
  | Cvtsd2ss -> "cvtsd2ss"
  | Cvtdq2ps -> "cvtdq2ps"
  | Cvtps2dq -> "cvtps2dq"
  | Cvttps2dq -> "cvttps2dq"
  | Cvtdq2pd -> "cvtdq2pd"
  | Cvtps2pd -> "cvtps2pd"
  | Cvtpd2ps -> "cvtpd2ps"
  | Shufp p -> "shuf" ^ fp_prec_suffix p
  | Unpckl p -> "unpckl" ^ fp_prec_suffix p
  | Unpckh p -> "unpckh" ^ fp_prec_suffix p
  | Movmsk p -> "movmsk" ^ fp_prec_suffix p
  | Blendp p -> "blend" ^ fp_prec_suffix p
  | Padd l -> "padd" ^ int_lane_suffix l
  | Psub l -> "psub" ^ int_lane_suffix l
  | Pmull l -> "pmull" ^ int_lane_suffix l
  | Pmuludq -> "pmuludq"
  | Pmaddwd -> "pmaddwd"
  | Pand -> "pand"
  | Pandn -> "pandn"
  | Por -> "por"
  | Pxor -> "pxor"
  | Pcmpeq l -> "pcmpeq" ^ int_lane_suffix l
  | Pcmpgt l -> "pcmpgt" ^ int_lane_suffix l
  | Pmaxs l -> "pmaxs" ^ int_lane_suffix l
  | Pmins l -> "pmins" ^ int_lane_suffix l
  | Pmaxu l -> "pmaxu" ^ int_lane_suffix l
  | Pminu l -> "pminu" ^ int_lane_suffix l
  | Pabs l -> "pabs" ^ int_lane_suffix l
  | Pavg l -> "pavg" ^ int_lane_suffix l
  | Psll l -> "psll" ^ int_lane_suffix l
  | Psrl l -> "psrl" ^ int_lane_suffix l
  | Psra l -> "psra" ^ int_lane_suffix l
  | Pslldq -> "pslldq"
  | Psrldq -> "psrldq"
  | Pshufd -> "pshufd"
  | Pshufb -> "pshufb"
  | Palignr -> "palignr"
  | Punpckl l -> "punpckl" ^ (match l with I8 -> "bw" | I16 -> "wd" | I32 -> "dq" | I64 -> "qdq")
  | Punpckh l -> "punpckh" ^ (match l with I8 -> "bw" | I16 -> "wd" | I32 -> "dq" | I64 -> "qdq")
  | Packss l -> "packss" ^ (match l with I16 -> "wb" | _ -> "dw")
  | Packus l -> "packus" ^ (match l with I16 -> "wb" | _ -> "dw")
  | Pmovmskb -> "pmovmskb"
  | Ptest -> "ptest"
  | Pextr l -> "pextr" ^ int_lane_suffix l
  | Pinsr l -> "pinsr" ^ int_lane_suffix l
  | Vfmadd (f, p) -> Printf.sprintf "fmadd%d%s" f (fp_prec_suffix p)
  | Vfmsub (f, p) -> Printf.sprintf "fmsub%d%s" f (fp_prec_suffix p)
  | Vfnmadd (f, p) -> Printf.sprintf "fnmadd%d%s" f (fp_prec_suffix p)
  | Vbroadcast p -> "broadcast" ^ fp_prec_suffix p
  | Vinsertf128 -> "insertf128"
  | Vextractf128 -> "extractf128"
  | Vperm2f128 -> "perm2f128"
  | Vzeroupper -> "zeroupper"

let is_control_flow = function Jmp | Jcc _ | Call | Ret -> true | _ -> false

(* Does this opcode operate on vector (XMM/YMM) registers? *)
let is_vector = function
  | Movap _ | Movup _ | Movs_x _ | Movdqa | Movdqu | Movd | Movq_x | Lddqu
  | Movnt _ | Fadd _ | Fsub _ | Fmul _ | Fdiv _ | Fsqrt _ | Fmin _ | Fmax _
  | Fand _ | Fandn _ | For_ _ | Fxor _ | Ucomis _ | Cmp_fp _ | Haddp _
  | Round _ | Rcp _ | Rsqrt _ | Cvtsi2 _ | Cvt2si _ | Cvtss2sd | Cvtsd2ss
  | Cvtdq2ps | Cvtps2dq | Cvttps2dq | Cvtdq2pd | Cvtps2pd | Cvtpd2ps
  | Shufp _ | Unpckl _ | Unpckh _ | Movmsk _ | Blendp _ | Padd _ | Psub _
  | Pmull _ | Pmuludq | Pmaddwd | Pand | Pandn | Por | Pxor | Pcmpeq _
  | Pcmpgt _ | Pmaxs _ | Pmins _ | Pmaxu _ | Pminu _ | Pabs _ | Pavg _
  | Psll _ | Psrl _ | Psra _ | Pslldq | Psrldq | Pshufd | Pshufb | Palignr
  | Punpckl _ | Punpckh _ | Packss _ | Packus _ | Pmovmskb | Ptest | Pextr _
  | Pinsr _ | Vfmadd _ | Vfmsub _ | Vfnmadd _ | Vbroadcast _ | Vinsertf128
  | Vextractf128 | Vperm2f128 | Vzeroupper -> true
  | _ -> false

(* Floating-point data path (subject to subnormal assists)? *)
let is_fp_arith = function
  | Fadd _ | Fsub _ | Fmul _ | Fdiv _ | Fsqrt _ | Fmin _ | Fmax _ | Haddp _
  | Ucomis _ | Cmp_fp _ | Round _ | Rcp _ | Rsqrt _ | Cvtss2sd | Cvtsd2ss
  | Cvtsi2 _ | Cvt2si _ | Cvtdq2ps | Cvtps2dq | Cvttps2dq | Cvtdq2pd
  | Cvtps2pd | Cvtpd2ps | Vfmadd _ | Vfmsub _ | Vfnmadd _ -> true
  | _ -> false

(* Instructions only available with AVX2/FMA extensions; blocks containing
   them are excluded from Ivy Bridge validation (paper, Results). *)
let requires_avx2 = function
  | Vfmadd _ | Vfmsub _ | Vfnmadd _ -> true
  | _ -> false

let writes_flags = function
  | Add | Sub | Adc | Sbb | And | Or | Xor | Cmp | Test | Inc | Dec | Neg
  | Shl | Shr | Sar | Rol | Ror | Shld | Shrd | Imul_rr | Mul_1 | Imul_1
  | Div | Idiv | Bsf | Bsr | Popcnt | Lzcnt | Tzcnt | Bt | Bts | Btr | Btc
  | Andn | Blsi | Blsr | Blsmsk | Bextr | Ucomis _ | Ptest -> true
  | _ -> false

let reads_flags = function
  | Adc | Sbb | Cmov _ | Set _ | Jcc _ -> true
  | _ -> false

let equal (a : t) b = a = b

let all_fp_precs = [ Ss; Sd; Ps; Pd ]
let packed_precs = [ Ps; Pd ]
let scalar_precs = [ Ss; Sd ]
let all_int_lanes = [ I8; I16; I32; I64 ]

(** Every opcode form the library models (parameterised constructors are
    instantiated at every legal payload). Used for parser tables and for
    exhaustiveness tests of the per-microarchitecture uop tables. *)
let all : t list =
  let conds c = List.map c Cond.all in
  let widths f = List.map f Width.all in
  let precs ps f = List.map f ps in
  let lanes ls f = List.map f ls in
  [ Mov; Movsxd; Lea; Push; Pop; Xchg; Add; Sub; Adc; Sbb; And; Or; Xor;
    Cmp; Test; Inc; Dec; Neg; Not; Shl; Shr; Sar; Rol; Ror; Shld; Shrd;
    Imul_rr; Mul_1; Imul_1; Div; Idiv; Cdq; Cqo; Bsf; Bsr; Popcnt; Lzcnt;
    Tzcnt; Bswap; Bt; Bts; Btr; Btc; Andn; Blsi; Blsr; Blsmsk; Bextr;
    Crc32; Nop; Jmp; Call; Ret; Movdqa; Movdqu; Movd; Movq_x; Lddqu;
    Pmuludq; Pmaddwd; Pand; Pandn; Por; Pxor; Pslldq; Psrldq; Pshufd;
    Pshufb; Palignr; Pmovmskb; Ptest; Cvtss2sd; Cvtsd2ss; Cvtdq2ps;
    Cvtps2dq; Cvttps2dq; Cvtdq2pd; Cvtps2pd; Cvtpd2ps; Vinsertf128;
    Vextractf128; Vperm2f128; Vzeroupper ]
  @ widths (fun w -> Movzx w)
  @ widths (fun w -> Movsx w)
  @ conds (fun c -> Cmov c)
  @ conds (fun c -> Set c)
  @ conds (fun c -> Jcc c)
  @ precs packed_precs (fun p -> Movap p)
  @ precs packed_precs (fun p -> Movup p)
  @ precs scalar_precs (fun p -> Movs_x p)
  @ precs packed_precs (fun p -> Movnt p)
  @ precs all_fp_precs (fun p -> Fadd p)
  @ precs all_fp_precs (fun p -> Fsub p)
  @ precs all_fp_precs (fun p -> Fmul p)
  @ precs all_fp_precs (fun p -> Fdiv p)
  @ precs all_fp_precs (fun p -> Fsqrt p)
  @ precs all_fp_precs (fun p -> Fmin p)
  @ precs all_fp_precs (fun p -> Fmax p)
  @ precs packed_precs (fun p -> Fand p)
  @ precs packed_precs (fun p -> Fandn p)
  @ precs packed_precs (fun p -> For_ p)
  @ precs packed_precs (fun p -> Fxor p)
  @ precs scalar_precs (fun p -> Ucomis p)
  @ precs all_fp_precs (fun p -> Cmp_fp p)
  @ precs packed_precs (fun p -> Haddp p)
  @ precs all_fp_precs (fun p -> Round p)
  @ precs [ Ss; Ps ] (fun p -> Rcp p)
  @ precs [ Ss; Ps ] (fun p -> Rsqrt p)
  @ precs scalar_precs (fun p -> Cvtsi2 p)
  @ precs scalar_precs (fun p -> Cvt2si (p, false))
  @ precs scalar_precs (fun p -> Cvt2si (p, true))
  @ precs packed_precs (fun p -> Shufp p)
  @ precs packed_precs (fun p -> Unpckl p)
  @ precs packed_precs (fun p -> Unpckh p)
  @ precs packed_precs (fun p -> Movmsk p)
  @ precs packed_precs (fun p -> Blendp p)
  @ lanes all_int_lanes (fun l -> Padd l)
  @ lanes all_int_lanes (fun l -> Psub l)
  @ lanes [ I16; I32 ] (fun l -> Pmull l)
  @ lanes all_int_lanes (fun l -> Pcmpeq l)
  @ lanes [ I8; I16; I32; I64 ] (fun l -> Pcmpgt l)
  @ lanes [ I8; I16; I32 ] (fun l -> Pmaxs l)
  @ lanes [ I8; I16; I32 ] (fun l -> Pmins l)
  @ lanes [ I8; I16; I32 ] (fun l -> Pmaxu l)
  @ lanes [ I8; I16; I32 ] (fun l -> Pminu l)
  @ lanes [ I8; I16; I32 ] (fun l -> Pabs l)
  @ lanes [ I8; I16 ] (fun l -> Pavg l)
  @ lanes [ I16; I32; I64 ] (fun l -> Psll l)
  @ lanes [ I16; I32; I64 ] (fun l -> Psrl l)
  @ lanes [ I16; I32 ] (fun l -> Psra l)
  @ lanes all_int_lanes (fun l -> Punpckl l)
  @ lanes all_int_lanes (fun l -> Punpckh l)
  @ lanes [ I16; I32 ] (fun l -> Packss l)
  @ lanes [ I16; I32 ] (fun l -> Packus l)
  @ lanes [ I8; I16; I32; I64 ] (fun l -> Pextr l)
  @ lanes [ I8; I16; I32; I64 ] (fun l -> Pinsr l)
  @ List.concat_map
      (fun f -> precs all_fp_precs (fun p -> Vfmadd (f, p)))
      [ 132; 213; 231 ]
  @ List.concat_map
      (fun f -> precs all_fp_precs (fun p -> Vfmsub (f, p)))
      [ 132; 213; 231 ]
  @ List.concat_map
      (fun f -> precs all_fp_precs (fun p -> Vfnmadd (f, p)))
      [ 132; 213; 231 ]
  @ precs scalar_precs (fun p -> Vbroadcast p)
