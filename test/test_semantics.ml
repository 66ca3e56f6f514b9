open X86

(* Run a block over a fresh state with [pages] scratch pages mapped
   starting at 0x10000; registers optionally preset. *)
let run ?(regs = []) ?(ftz = false) text =
  let st = Xsem.Machine_state.create () in
  st.ftz <- ftz;
  let mmu = Memsim.Mmu.create () in
  for vpn = 0x10 to 0x20 do
    ignore (Memsim.Mmu.map_fresh mmu (Int64.of_int vpn))
  done;
  List.iter (fun (r, v) -> Xsem.Machine_state.set_reg st r v) regs;
  let block = Parser.block_exn text in
  match Xsem.Executor.run st mmu block with
  | Xsem.Executor.Completed log ->
    (st, List.concat_map (fun (s : Reference.step) -> s.events) (Reference.steps_of_log log))
  | Faulted { fault; _ } -> Alcotest.failf "unexpected fault: %s" (Memsim.Fault.to_string fault)

let gpr st r = Xsem.Machine_state.get_reg st r
let check64 = Alcotest.(check int64)

let test_mov_widths () =
  let st, _ = run ~regs:[ (Reg.rax, 0xFFFFFFFFFFFFFFFFL) ] "movl $5, %eax" in
  check64 "32-bit write zeroes upper" 5L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, 0xAABBCCDDEEFF1122L) ] "movb $5, %al" in
  check64 "8-bit write merges" 0xAABBCCDDEEFF1105L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, 0xAABBCCDDEEFF1122L) ] "movw $5, %ax" in
  check64 "16-bit write merges" 0xAABBCCDDEEFF0005L (gpr st Reg.rax)

let test_add_flags () =
  let st, _ = run ~regs:[ (Reg.rax, 0xFFFFFFFFFFFFFFFFL) ] "add $1, %rax" in
  check64 "wraps" 0L (gpr st Reg.rax);
  Alcotest.(check bool) "cf" true st.flags.cf;
  Alcotest.(check bool) "zf" true st.flags.zf;
  Alcotest.(check bool) "of clear" false st.flags.of_;
  let st, _ = run ~regs:[ (Reg.rax, 0x7FFFFFFFFFFFFFFFL) ] "add $1, %rax" in
  Alcotest.(check bool) "signed overflow" true st.flags.of_;
  Alcotest.(check bool) "sf" true st.flags.sf

let test_sub_cmp_flags () =
  let st, _ = run ~regs:[ (Reg.rax, 3L); (Reg.rbx, 5L) ] "cmp %rbx, %rax" in
  Alcotest.(check bool) "borrow" true st.flags.cf;
  Alcotest.(check bool) "sf" true st.flags.sf;
  check64 "cmp preserves" 3L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, 5L); (Reg.rbx, 5L) ] "sub %rbx, %rax" in
  Alcotest.(check bool) "zf" true st.flags.zf;
  check64 "result" 0L (gpr st Reg.rax)

let test_adc_sbb () =
  let st, _ =
    run ~regs:[ (Reg.rax, 0xFFFFFFFFFFFFFFFFL); (Reg.rbx, 0L); (Reg.rcx, 10L) ]
      "add $1, %rax\nadc %rbx, %rcx"
  in
  check64 "carry propagated" 11L (gpr st Reg.rcx)

let test_logic () =
  let st, _ = run ~regs:[ (Reg.rax, 0xF0L); (Reg.rbx, 0x0FL) ] "or %rbx, %rax" in
  check64 "or" 0xFFL (gpr st Reg.rax);
  Alcotest.(check bool) "cf clear" false st.flags.cf;
  let st, _ = run ~regs:[ (Reg.rax, 0xFFL) ] "xor %rax, %rax" in
  check64 "zero idiom" 0L (gpr st Reg.rax);
  Alcotest.(check bool) "zf" true st.flags.zf

let test_shifts () =
  let st, _ = run ~regs:[ (Reg.rax, 1L) ] "shl $4, %rax" in
  check64 "shl" 16L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, -8L) ] "sar $1, %rax" in
  check64 "sar" (-4L) (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, -8L) ] "shr $1, %rax" in
  check64 "shr" 0x7FFFFFFFFFFFFFFCL (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, 0x8000000000000001L) ] "rol $1, %rax" in
  check64 "rol" 3L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, 5L) ] "shl $0, %rax" in
  check64 "count 0 no-op" 5L (gpr st Reg.rax)

let test_mul () =
  let st, _ = run ~regs:[ (Reg.rax, 6L); (Reg.rbx, 7L) ] "imul %rbx, %rax" in
  check64 "imul" 42L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, 0xFFFFFFFFL); (Reg.rbx, 0x100000000L) ] "mul %rbx" in
  check64 "mul low" 0xFFFFFFFF00000000L (gpr st Reg.rax);
  check64 "mul high" 0L (gpr st Reg.rdx);
  let st, _ = run ~regs:[ (Reg.rax, Int64.shift_left 1L 62); (Reg.rbx, 4L) ] "mul %rbx" in
  check64 "mul high set" 1L (gpr st Reg.rdx);
  Alcotest.(check bool) "cf on high" true st.flags.cf

let test_div_paths () =
  let st, evs =
    run ~regs:[ (Reg.rax, 100L); (Reg.rdx, 0L); (Reg.rcx, 7L) ] "divl %ecx"
  in
  check64 "quotient" 14L (gpr st Reg.rax);
  check64 "remainder" 2L (gpr st Reg.rdx);
  Alcotest.(check bool) "fast path" true (List.mem Xsem.Step_log.Div_fast_path evs);
  let st, evs =
    run ~regs:[ (Reg.rax, 0L); (Reg.rdx, 1L); (Reg.rcx, 16L) ] "divq %rcx"
  in
  (* dividend = 2^64, divisor 16: quotient 2^60 *)
  check64 "wide quotient" (Int64.shift_left 1L 60) (gpr st Reg.rax);
  Alcotest.(check bool) "slow path" true (List.mem Xsem.Step_log.Div_slow_path evs)

let test_div_by_zero () =
  let _, evs = run ~regs:[ (Reg.rax, 5L); (Reg.rdx, 0L); (Reg.rcx, 0L) ] "divq %rcx" in
  Alcotest.(check bool) "sigfpe event" true (List.mem Xsem.Step_log.Div_by_zero evs)

let test_idiv () =
  let st, _ =
    run ~regs:[ (Reg.rax, -100L); (Reg.rcx, 7L) ] "cqo\nidivq %rcx"
  in
  check64 "quotient" (-14L) (gpr st Reg.rax);
  check64 "remainder" (-2L) (gpr st Reg.rdx)

let test_movzx_movsx () =
  let st, _ = run ~regs:[ (Reg.rbx, 0xFFL) ] "movzbl %bl, %eax" in
  check64 "movzx" 0xFFL (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rbx, 0xFFL) ] "movsbl %bl, %eax" in
  check64 "movsx" 0xFFFFFFFFL (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rbx, 0xFFFFFFFFL) ] "movslq %ebx, %rax" in
  check64 "movsxd" 0xFFFFFFFFFFFFFFFFL (gpr st Reg.rax)

let test_lea () =
  let st, _ =
    run ~regs:[ (Reg.rbx, 0x100L); (Reg.rcx, 4L) ] "lea 8(%rbx, %rcx, 4), %rax"
  in
  check64 "lea" 0x118L (gpr st Reg.rax)

let test_cmov_set () =
  let st, _ = run ~regs:[ (Reg.rax, 1L); (Reg.rbx, 1L); (Reg.rcx, 99L) ]
      "cmp %rbx, %rax\ncmove %rcx, %rdx" in
  check64 "cmov taken" 99L (gpr st Reg.rdx);
  let st, _ = run ~regs:[ (Reg.rax, 1L); (Reg.rbx, 2L); (Reg.rcx, 99L); (Reg.rdx, 7L) ]
      "cmp %rbx, %rax\ncmove %rcx, %rdx" in
  check64 "cmov not taken" 7L (gpr st Reg.rdx);
  let st, _ = run ~regs:[ (Reg.rax, 5L); (Reg.rbx, 5L) ] "cmp %rbx, %rax\nsete %cl" in
  check64 "sete" 1L (gpr st Reg.cl)

let test_stack () =
  let st, _ =
    run ~regs:[ (Reg.rsp, 0x11000L); (Reg.rax, 42L) ] "push %rax\npop %rbx"
  in
  check64 "pushed/popped" 42L (gpr st Reg.rbx);
  check64 "rsp restored" 0x11000L (gpr st Reg.rsp)

let test_memory_ops () =
  let st, _ =
    run ~regs:[ (Reg.rbx, 0x10100L); (Reg.rax, 0x1122334455667788L) ]
      "movq %rax, 8(%rbx)\nmovq 8(%rbx), %rcx\nmovl 8(%rbx), %edx"
  in
  check64 "store/load q" 0x1122334455667788L (gpr st Reg.rcx);
  check64 "load d" 0x55667788L (gpr st Reg.rdx)

let test_rmw () =
  let st, _ =
    run ~regs:[ (Reg.rbx, 0x10100L) ] "movq $5, (%rbx)\naddq $3, (%rbx)\nmovq (%rbx), %rax"
  in
  check64 "rmw" 8L (gpr st Reg.rax)

let test_bitscan () =
  let st, _ = run ~regs:[ (Reg.rbx, 0x100L) ] "bsf %rbx, %rax" in
  check64 "bsf" 8L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rbx, 0x100L) ] "bsr %rbx, %rax" in
  check64 "bsr" 8L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rbx, 0xF0F0L) ] "popcnt %rbx, %rax" in
  check64 "popcnt" 8L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rbx, 0L) ] "tzcnt %rbx, %rax" in
  check64 "tzcnt zero" 64L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rbx, 1L) ] "lzcnt %rbx, %rax" in
  check64 "lzcnt" 63L (gpr st Reg.rax)

let test_bswap () =
  let st, _ = run ~regs:[ (Reg.rax, 0x1122334455667788L) ] "bswap %rax" in
  check64 "bswap64" 0x8877665544332211L (gpr st Reg.rax)

let test_bmi () =
  let st, _ = run ~regs:[ (Reg.rbx, 0b1100L); (Reg.rcx, 0b1010L) ] "andn %rcx, %rbx, %rax" in
  check64 "andn" 0b0010L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rbx, 0b10100L) ] "blsi %rbx, %rax" in
  check64 "blsi" 0b100L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rbx, 0b10100L) ] "blsr %rbx, %rax" in
  check64 "blsr" 0b10000L (gpr st Reg.rax)

let test_xchg () =
  let st, _ = run ~regs:[ (Reg.rax, 1L); (Reg.rbx, 2L) ] "xchg %rbx, %rax" in
  check64 "rax" 2L (gpr st Reg.rax);
  check64 "rbx" 1L (gpr st Reg.rbx)

(* --- vector ----------------------------------------------------------- *)

let vec st i = Xsem.Machine_state.get_vec st (Reg.Xmm i)

let f32 bits = Int32.float_of_bits bits
let bits_of_f32 = Int32.bits_of_float

let set_xmm_f32 st i (a, b, c, d) =
  let buf = Bytes.create 16 in
  Bytes.set_int32_le buf 0 (bits_of_f32 a);
  Bytes.set_int32_le buf 4 (bits_of_f32 b);
  Bytes.set_int32_le buf 8 (bits_of_f32 c);
  Bytes.set_int32_le buf 12 (bits_of_f32 d);
  Xsem.Machine_state.set_vec st (Reg.Xmm i) buf

let get_xmm_f32 st i =
  let b = vec st i in
  ( f32 (Bytes.get_int32_le b 0),
    f32 (Bytes.get_int32_le b 4),
    f32 (Bytes.get_int32_le b 8),
    f32 (Bytes.get_int32_le b 12) )

let run_vec ?ftz setup text =
  let st = Xsem.Machine_state.create () in
  (match ftz with Some f -> st.ftz <- f | None -> ());
  let mmu = Memsim.Mmu.create () in
  for vpn = 0x10 to 0x18 do
    ignore (Memsim.Mmu.map_fresh mmu (Int64.of_int vpn))
  done;
  setup st;
  match Xsem.Executor.run st mmu (Parser.block_exn text) with
  | Xsem.Executor.Completed log ->
    (st, List.concat_map (fun (s : Reference.step) -> s.events) (Reference.steps_of_log log))
  | Faulted { fault; _ } -> Alcotest.failf "fault: %s" (Memsim.Fault.to_string fault)

let test_addps () =
  let st, _ =
    run_vec
      (fun st ->
        set_xmm_f32 st 0 (1.0, 2.0, 3.0, 4.0);
        set_xmm_f32 st 1 (10.0, 20.0, 30.0, 40.0))
      "addps %xmm1, %xmm0"
  in
  let a, b, c, d = get_xmm_f32 st 0 in
  Alcotest.(check (float 0.0)) "lane0" 11.0 a;
  Alcotest.(check (float 0.0)) "lane1" 22.0 b;
  Alcotest.(check (float 0.0)) "lane2" 33.0 c;
  Alcotest.(check (float 0.0)) "lane3" 44.0 d

let test_scalar_merge () =
  let st, _ =
    run_vec
      (fun st ->
        set_xmm_f32 st 0 (1.0, 2.0, 3.0, 4.0);
        set_xmm_f32 st 1 (10.0, 20.0, 30.0, 40.0))
      "addss %xmm1, %xmm0"
  in
  let a, b, _, _ = get_xmm_f32 st 0 in
  Alcotest.(check (float 0.0)) "low lane added" 11.0 a;
  Alcotest.(check (float 0.0)) "upper preserved" 2.0 b

let test_avx_3op () =
  let st, _ =
    run_vec
      (fun st ->
        set_xmm_f32 st 1 (1.0, 2.0, 3.0, 4.0);
        set_xmm_f32 st 2 (5.0, 6.0, 7.0, 8.0))
      "vmulps %xmm2, %xmm1, %xmm0"
  in
  let a, _, _, d = get_xmm_f32 st 0 in
  Alcotest.(check (float 0.0)) "lane0" 5.0 a;
  Alcotest.(check (float 0.0)) "lane3" 32.0 d

let test_zero_idiom_vec () =
  let st, _ =
    run_vec (fun st -> set_xmm_f32 st 2 (1.0, 2.0, 3.0, 4.0))
      "vxorps %xmm2, %xmm2, %xmm2"
  in
  Alcotest.(check bool) "zeroed" true (Bytes.equal (vec st 2) (Bytes.make 16 '\000'))

let test_subnormal_event () =
  let tiny = Int32.float_of_bits 0x00000400l in
  let _, evs =
    run_vec (fun st -> set_xmm_f32 st 0 (tiny, 0.0, 0.0, 0.0))
      "addss %xmm0, %xmm0"
  in
  Alcotest.(check bool) "event without ftz" true (List.mem Xsem.Step_log.Subnormal evs);
  let st, evs =
    run_vec ~ftz:true (fun st -> set_xmm_f32 st 0 (tiny, 0.0, 0.0, 0.0))
      "addss %xmm0, %xmm0"
  in
  Alcotest.(check bool) "no event with ftz" false (List.mem Xsem.Step_log.Subnormal evs);
  let a, _, _, _ = get_xmm_f32 st 0 in
  Alcotest.(check (float 0.0)) "flushed to zero" 0.0 a

let test_pshufd () =
  let st, _ =
    run_vec
      (fun st ->
        let b = Bytes.create 16 in
        List.iteri (fun i v -> Bytes.set_int32_le b (4 * i) v) [ 10l; 20l; 30l; 40l ];
        Xsem.Machine_state.set_vec st (Reg.Xmm 1) b)
      "pshufd $0x1b, %xmm1, %xmm0" (* 0b00_01_10_11: reverse *)
  in
  let b = vec st 0 in
  Alcotest.(check int32) "lane0" 40l (Bytes.get_int32_le b 0);
  Alcotest.(check int32) "lane3" 10l (Bytes.get_int32_le b 12)

let test_padd_wrap () =
  let st, _ =
    run_vec
      (fun st ->
        let b = Bytes.make 16 '\xff' in
        Xsem.Machine_state.set_vec st (Reg.Xmm 0) b;
        let c = Bytes.make 16 '\001' in
        Xsem.Machine_state.set_vec st (Reg.Xmm 1) c)
      "paddb %xmm1, %xmm0"
  in
  Alcotest.(check bool) "wraps to zero" true (Bytes.equal (vec st 0) (Bytes.make 16 '\000'))

let test_pcmpeq () =
  let st, _ =
    run_vec
      (fun st ->
        let b = Bytes.make 16 '\x07' in
        Xsem.Machine_state.set_vec st (Reg.Xmm 0) b;
        Xsem.Machine_state.set_vec st (Reg.Xmm 1) (Bytes.copy b))
      "pcmpeqd %xmm1, %xmm0"
  in
  Alcotest.(check bool) "all ones" true (Bytes.equal (vec st 0) (Bytes.make 16 '\xff'))

let test_pmovmskb () =
  let st, _ =
    run_vec
      (fun st ->
        let b = Bytes.make 16 '\000' in
        Bytes.set b 0 '\x80';
        Bytes.set b 15 '\xff';
        Xsem.Machine_state.set_vec st (Reg.Xmm 1) b)
      "pmovmskb %xmm1, %eax"
  in
  check64 "mask" 0x8001L (gpr st Reg.rax)

let test_movmskps () =
  let st, _ =
    run_vec (fun st -> set_xmm_f32 st 1 (-1.0, 2.0, -3.0, 4.0))
      "movmskps %xmm1, %eax"
  in
  check64 "sign mask" 0b0101L (gpr st Reg.rax)

let test_cvt () =
  let st, _ = run_vec (fun st -> Xsem.Machine_state.set_reg st Reg.ecx 42L)
      "cvtsi2ss %ecx, %xmm0" in
  let a, _, _, _ = get_xmm_f32 st 0 in
  Alcotest.(check (float 0.0)) "cvtsi2ss" 42.0 a;
  let st, _ = run_vec (fun st -> set_xmm_f32 st 1 (7.75, 0.0, 0.0, 0.0))
      "cvttss2si %xmm1, %eax" in
  check64 "cvttss2si truncates" 7L (gpr st Reg.rax)

let test_fma () =
  let st, _ =
    run_vec
      (fun st ->
        set_xmm_f32 st 0 (1.0, 1.0, 1.0, 1.0);
        set_xmm_f32 st 1 (2.0, 3.0, 4.0, 5.0);
        set_xmm_f32 st 2 (10.0, 10.0, 10.0, 10.0))
      "vfmadd231ps %xmm2, %xmm1, %xmm0"
  in
  (* 231: dst = src2*src3 + dst *)
  let a, b, _, _ = get_xmm_f32 st 0 in
  Alcotest.(check (float 0.0)) "lane0" 21.0 a;
  Alcotest.(check (float 0.0)) "lane1" 31.0 b

let test_unpck_shuf () =
  let st, _ =
    run_vec
      (fun st ->
        set_xmm_f32 st 0 (1.0, 2.0, 3.0, 4.0);
        set_xmm_f32 st 1 (5.0, 6.0, 7.0, 8.0))
      "unpcklps %xmm1, %xmm0"
  in
  let a, b, c, d = get_xmm_f32 st 0 in
  Alcotest.(check (float 0.0)) "a" 1.0 a;
  Alcotest.(check (float 0.0)) "b" 5.0 b;
  Alcotest.(check (float 0.0)) "c" 2.0 c;
  Alcotest.(check (float 0.0)) "d" 6.0 d

let test_packss_saturation () =
  let st, _ =
    run_vec
      (fun st ->
        let b = Bytes.create 16 in
        for i = 0 to 7 do
          Bytes.set_uint16_le b (2 * i) (if i mod 2 = 0 then 0x7FFF else 0x8000)
        done;
        Xsem.Machine_state.set_vec st (Reg.Xmm 0) b;
        Xsem.Machine_state.set_vec st (Reg.Xmm 1) (Bytes.copy b))
      "packsswb %xmm1, %xmm0"
  in
  let b = vec st 0 in
  Alcotest.(check int) "saturate high" 0x7F (Char.code (Bytes.get b 0));
  Alcotest.(check int) "saturate low" 0x80 (Char.code (Bytes.get b 1))

let test_ucomis_flags () =
  let st, _ =
    run_vec (fun st ->
        set_xmm_f32 st 0 (1.0, 0.0, 0.0, 0.0);
        set_xmm_f32 st 1 (2.0, 0.0, 0.0, 0.0))
      "ucomiss %xmm1, %xmm0"
  in
  Alcotest.(check bool) "below" true st.flags.cf;
  Alcotest.(check bool) "not equal" false st.flags.zf

let test_movd_movq () =
  let st, _ = run_vec (fun st -> Xsem.Machine_state.set_reg st Reg.rax 0x1122334455667788L)
      "movq %rax, %xmm0\nmovq %xmm0, %rbx" in
  check64 "roundtrip" 0x1122334455667788L (gpr st Reg.rbx)

let test_vbroadcast () =
  let st, _ =
    run_vec
      (fun st -> Xsem.Machine_state.set_reg st Reg.rbx 0x10100L)
      "movl $0x40490fdb, (%rbx)\nvbroadcastss (%rbx), %xmm0" ~ftz:false
  in
  let a, b, c, d = get_xmm_f32 st 0 in
  List.iter (fun v -> Alcotest.(check bool) "pi-ish" true (Float.abs (v -. 3.14159) < 0.001))
    [ a; b; c; d ]

let test_crc32 () =
  (* crc32c of a single zero byte from initial 0 accumulator *)
  let st, _ =
    run ~regs:[ (Reg.rax, 0L); (Reg.rbx, 0L) ] "crc32b %bl, %eax"
  in
  check64 "crc of 0 is 0" 0L (gpr st Reg.rax);
  let st, _ = run ~regs:[ (Reg.rax, 0L); (Reg.rbx, 0xFFL) ] "crc32b %bl, %eax" in
  Alcotest.(check bool) "crc nonzero" true (gpr st Reg.rax <> 0L)

let suite =
  [
    Alcotest.test_case "mov widths" `Quick test_mov_widths;
    Alcotest.test_case "add flags" `Quick test_add_flags;
    Alcotest.test_case "sub/cmp flags" `Quick test_sub_cmp_flags;
    Alcotest.test_case "adc carry chain" `Quick test_adc_sbb;
    Alcotest.test_case "logic" `Quick test_logic;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "multiply" `Quick test_mul;
    Alcotest.test_case "div fast/slow paths" `Quick test_div_paths;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "idiv" `Quick test_idiv;
    Alcotest.test_case "movzx/movsx" `Quick test_movzx_movsx;
    Alcotest.test_case "lea" `Quick test_lea;
    Alcotest.test_case "cmov/setcc" `Quick test_cmov_set;
    Alcotest.test_case "push/pop" `Quick test_stack;
    Alcotest.test_case "memory ops" `Quick test_memory_ops;
    Alcotest.test_case "rmw" `Quick test_rmw;
    Alcotest.test_case "bit scans" `Quick test_bitscan;
    Alcotest.test_case "bswap" `Quick test_bswap;
    Alcotest.test_case "bmi" `Quick test_bmi;
    Alcotest.test_case "xchg" `Quick test_xchg;
    Alcotest.test_case "addps lanes" `Quick test_addps;
    Alcotest.test_case "scalar merge" `Quick test_scalar_merge;
    Alcotest.test_case "avx 3-operand" `Quick test_avx_3op;
    Alcotest.test_case "vector zero idiom" `Quick test_zero_idiom_vec;
    Alcotest.test_case "subnormal events/ftz" `Quick test_subnormal_event;
    Alcotest.test_case "pshufd" `Quick test_pshufd;
    Alcotest.test_case "padd wraps" `Quick test_padd_wrap;
    Alcotest.test_case "pcmpeq" `Quick test_pcmpeq;
    Alcotest.test_case "pmovmskb" `Quick test_pmovmskb;
    Alcotest.test_case "movmskps" `Quick test_movmskps;
    Alcotest.test_case "conversions" `Quick test_cvt;
    Alcotest.test_case "fma 231" `Quick test_fma;
    Alcotest.test_case "unpcklps" `Quick test_unpck_shuf;
    Alcotest.test_case "packss saturation" `Quick test_packss_saturation;
    Alcotest.test_case "ucomiss flags" `Quick test_ucomis_flags;
    Alcotest.test_case "movd/movq transfer" `Quick test_movd_movq;
    Alcotest.test_case "vbroadcastss" `Quick test_vbroadcast;
    Alcotest.test_case "crc32" `Quick test_crc32;
  ]
