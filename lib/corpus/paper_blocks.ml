(** Literal basic blocks from the paper, used by the case studies.

    - [division]: the 64/32-bit unsigned division block (Table
      "case-study" row 1; measured 21.62 on Haswell, grossly
      over-predicted by IACA and llvm-mca which confuse it with the
      128/64-bit form).
    - [zero_idiom]: the single vectorised XOR of xmm2 with itself
      (measured 0.25; llvm-mca and OSACA predict a full cycle).
    - [gzip_crc]: the updcrc inner-loop body from Gzip (Figure 1 and the
      mis-scheduling case study; measured 8.25). The lookup-table
      displacement is 8-byte aligned, as gzip's crc_32_tab is.
    - [tensorflow_ablation]: a large vectorised CNN-training block in the
      style of Table "ablation": it cannot run unmapped, streams through
      enough pages to thrash the L1D under fresh-page mapping, produces
      subnormals unless gradual underflow is disabled, and is long enough
      that naive 100x unrolling overflows the L1I cache. *)

open X86

let division : Inst.t list =
  Parser.block_exn {|
    xor edx, edx
    div ecx
    test edx, edx
  |}

let zero_idiom : Inst.t list =
  Parser.block_exn "vxorps %xmm2, %xmm2, %xmm2"

let gzip_crc : Inst.t list =
  Parser.block_exn {|
    add $1, %rdi
    mov %edx, %eax
    shr $8, %rdx
    xorb -1(%rdi), %al
    movzbl %al, %eax
    xorq 0x41108(, %rax, 8), %rdx
    cmp %rcx, %rdi
  |}

let tensorflow_ablation : Inst.t list =
  let b = Buffer.create 4096 in
  (* Eight parallel accumulator chains over streamed inputs; each
     unrolled copy advances the stream pointers by 512 bytes, so the
     fresh-page mapping mode leaves a multi-hundred-KB cache footprint.

     The prelude turns the page-fill pattern (0x12345600 as int32 =
     3.05e8) into t = rcp(cvt(x)) = 3.3e-9; then per chain
     t*t = 1.1e-17, squared = 1.2e-34 (normal), and the final multiply by
     t lands at 3.9e-43 — squarely inside the gradual-underflow range, so
     every chain takes a microcode assist per iteration unless FTZ/DAZ is
     set. With FTZ the value flushes to zero and the chain runs at full
     speed. *)
  Buffer.add_string b "vmovups (%rdi), %ymm0\n";
  Buffer.add_string b "vcvtdq2ps %ymm0, %ymm0\n";
  Buffer.add_string b "vrcpps %ymm0, %ymm0\n";
  for k = 1 to 8 do
    let disp = 32 * k in
    Buffer.add_string b (Printf.sprintf "vmovups %d(%%rdi), %%ymm%d\n" disp k);
    Buffer.add_string b
      (Printf.sprintf "vmulps %%ymm0, %%ymm0, %%ymm%d\n" (7 + k));
    Buffer.add_string b
      (Printf.sprintf "vmulps %%ymm%d, %%ymm%d, %%ymm%d\n" (7 + k) (7 + k) (7 + k));
    Buffer.add_string b
      (Printf.sprintf "vmulps %%ymm0, %%ymm%d, %%ymm%d\n" (7 + k) (7 + k));
    Buffer.add_string b
      (Printf.sprintf "vaddps %d(%%rsi), %%ymm%d, %%ymm%d\n" disp (7 + k) (7 + k));
    Buffer.add_string b
      (Printf.sprintf "vmovups %%ymm%d, %d(%%rdx)\n" (7 + k) disp)
  done;
  Buffer.add_string b "add $512, %rdi\n";
  Buffer.add_string b "add $512, %rsi\n";
  Buffer.add_string b "add $512, %rdx\n";
  Buffer.add_string b "cmp %rcx, %rdi\n";
  Parser.block_exn (Buffer.contents b)

let gzip_crc_block = Block.make ~id:"paper/gzip-crc" ~app:"paper" gzip_crc
