open X86

let test_port_sets () =
  let open Uarch.Port in
  Alcotest.(check string) "name" "p0156" (name p0156);
  Alcotest.(check string) "single" "p4" (name p4);
  Alcotest.(check int) "cardinal" 4 (cardinal p0156);
  Alcotest.(check bool) "mem" true (mem 5 p015);
  Alcotest.(check bool) "not mem" false (mem 2 p015);
  Alcotest.(check bool) "to_list sorted" true (to_list p0156 = [ 0; 1; 5; 6 ]);
  Alcotest.(check bool) "of_list inverse" true (equal p0156 (of_list [ 6; 5; 1; 0 ]))

(* every opcode form must decompose without exception on every uarch *)
let test_decompose_total () =
  List.iter
    (fun (d : Uarch.Descriptor.t) ->
      List.iter
        (fun op ->
          let inst =
            match op with
            | Opcode.Nop | Cdq | Cqo | Ret | Vzeroupper -> Inst.make op []
            | Opcode.Inc | Dec | Neg | Not | Bswap | Push | Pop | Div | Idiv
            | Mul_1 | Imul_1 | Jmp | Call ->
              Inst.make op [ Operand.Reg Reg.rax ]
            | Opcode.Set _ -> Inst.make op [ Operand.Reg Reg.al ]
            | Opcode.Jcc _ -> Inst.make op [ Operand.Imm 0L ]
            | _ when Opcode.is_vector op ->
              Inst.make op [ Operand.Reg (Reg.Xmm 0); Operand.Reg (Reg.Xmm 1) ]
            | _ -> Inst.make op [ Operand.Reg Reg.rax; Operand.Reg Reg.rbx ]
          in
          let decomp = Uarch.Descriptor.decompose d inst in
          if not decomp.eliminated then begin
            if decomp.uops = [] && op <> Opcode.Nop && op <> Opcode.Push
               && op <> Opcode.Pop
            then
              Alcotest.failf "%s: empty decomposition for %s" d.short
                (Opcode.mnemonic op);
            List.iter
              (fun (u : Uarch.Uop.t) ->
                if u.latency < 0 then
                  Alcotest.failf "%s: negative latency for %s" d.short
                    (Opcode.mnemonic op);
                if u.kind = Uarch.Uop.Exec && Uarch.Port.is_empty u.ports then
                  Alcotest.failf "%s: empty port set for %s" d.short
                    (Opcode.mnemonic op))
              decomp.uops
          end)
        Opcode.all)
    Uarch.All.all

let test_eliminations () =
  let hsw = Uarch.All.haswell in
  let zi = Builder.xor (Builder.r Reg.rax) (Builder.r Reg.rax) in
  Alcotest.(check bool) "zero idiom eliminated" true
    (Uarch.Descriptor.decompose hsw zi).eliminated;
  let mv = Builder.mov (Builder.r Reg.rax) (Builder.r Reg.rbx) in
  Alcotest.(check bool) "reg move eliminated" true
    (Uarch.Descriptor.decompose hsw mv).eliminated;
  let mv_mem = Builder.mov (Builder.r Reg.rax) (Builder.mb ~base:Reg.rbx ()) in
  Alcotest.(check bool) "load not eliminated" false
    (Uarch.Descriptor.decompose hsw mv_mem).eliminated

let test_micro_fusion () =
  let hsw = Uarch.All.haswell in
  let load_op = Builder.add (Builder.r Reg.rax) (Builder.mb ~base:Reg.rbx ()) in
  let d = Uarch.Descriptor.decompose hsw load_op in
  Alcotest.(check int) "2 uops" 2 (List.length d.uops);
  Alcotest.(check int) "1 fused slot" 1 d.fused_slots;
  let store = Builder.mov (Builder.mb ~base:Reg.rbx ()) (Builder.r Reg.rax) in
  let d = Uarch.Descriptor.decompose hsw store in
  Alcotest.(check int) "store 2 uops" 2 (List.length d.uops);
  Alcotest.(check int) "store 1 slot" 1 d.fused_slots;
  let rmw = Builder.add (Builder.mb ~base:Reg.rbx ()) (Builder.i 1) in
  let d = Uarch.Descriptor.decompose hsw rmw in
  Alcotest.(check int) "rmw 4 uops" 4 (List.length d.uops);
  Alcotest.(check int) "rmw 2 slots" 2 d.fused_slots

let test_ivb_ymm_split () =
  let ymm_load =
    Inst.make (Opcode.Movup Opcode.Ps)
      [ Operand.Reg (Reg.Ymm 0); Operand.mem ~base:Reg.rbx () ]
  in
  let ivb = Uarch.Descriptor.decompose Uarch.All.ivy_bridge ymm_load in
  let hsw = Uarch.Descriptor.decompose Uarch.All.haswell ymm_load in
  Alcotest.(check int) "ivb splits 32B load" 2 (List.length ivb.uops);
  Alcotest.(check int) "hsw single load" 1 (List.length hsw.uops)

let test_uarch_differences () =
  let adc = Builder.adc (Builder.r Reg.rax) (Builder.r Reg.rbx) in
  Alcotest.(check int) "adc 2 uops hsw" 2
    (List.length (Uarch.Descriptor.decompose Uarch.All.haswell adc).uops);
  Alcotest.(check int) "adc 1 uop skl" 1
    (List.length (Uarch.Descriptor.decompose Uarch.All.skylake adc).uops);
  let fma = Builder.vfmadd231ps (Builder.r (Reg.Xmm 0)) (Builder.r (Reg.Xmm 1)) (Builder.r (Reg.Xmm 2)) in
  Alcotest.(check int) "fma 1 uop hsw" 1
    (List.length (Uarch.Descriptor.decompose Uarch.All.haswell fma).uops);
  Alcotest.(check int) "no fma unit on ivb: 2 uops" 2
    (List.length (Uarch.Descriptor.decompose Uarch.All.ivy_bridge fma).uops)

let test_port_combination_count () =
  (* Abel-Reineke find ~13 combinations on Haswell; our model should be
     in the same ballpark over the whole ISA *)
  let combos = Hashtbl.create 32 in
  List.iter
    (fun op ->
      let inst =
        match op with
        | Opcode.Nop | Cdq | Cqo | Ret | Vzeroupper -> Inst.make op []
        | _ when Opcode.is_vector op ->
          Inst.make op [ Operand.Reg (Reg.Xmm 0); Operand.Reg (Reg.Xmm 1) ]
        | _ -> Inst.make op [ Operand.Reg Reg.rax; Operand.Reg Reg.rbx ]
      in
      match Inst.validate inst with
      | Ok () ->
        List.iter
          (fun c -> Hashtbl.replace combos c ())
          (Uarch.Descriptor.port_combinations Uarch.All.haswell inst)
      | Error _ -> ())
    Opcode.all;
  let n = Hashtbl.length combos in
  Alcotest.(check bool) (Printf.sprintf "8..16 combos (got %d)" n) true (n >= 8 && n <= 16)

let test_port_schedule () =
  let ps = Uarch.Port_schedule.create ~n_ports:2 in
  Alcotest.(check int) "first claim" 5 (Uarch.Port_schedule.claim ps ~port:0 ~ready:5 ~busy:1);
  Alcotest.(check int) "occupied pushes" 6 (Uarch.Port_schedule.claim ps ~port:0 ~ready:5 ~busy:1);
  Alcotest.(check int) "backfill earlier slot" 2 (Uarch.Port_schedule.claim ps ~port:0 ~ready:2 ~busy:1);
  Alcotest.(check int) "other port independent" 5 (Uarch.Port_schedule.claim ps ~port:1 ~ready:5 ~busy:1);
  Alcotest.(check int) "busy blocks range" 10 (Uarch.Port_schedule.claim ps ~port:1 ~ready:10 ~busy:5);
  Alcotest.(check int) "after busy run" 15 (Uarch.Port_schedule.claim ps ~port:1 ~ready:11 ~busy:1)

(* Port-schedule operations for the reference check: a claim, a run of
   [n] single-cycle claims from one ready cycle (which packs whole words
   of the bitmap), a peek, or a reset, on one of two ports. *)
type port_op =
  | Claim of int * int * int
  | Fill of int * int * int
  | Peek of int * int
  | Reset

(* Ready cycles up to about 300 and busy runs up to 96, the divider's
   range; ready cycles on either side of the bitmap's word boundaries
   (32 cycles to a word) come up often, and long busy runs span words. *)
let port_op_gen =
  QCheck.Gen.(
    let ready =
      frequency
        [
          (4, int_range (-2) 300);
          (3, oneofl [ 0; 30; 31; 32; 33; 62; 63; 64; 65; 95; 96; 127; 128; 160 ]);
        ]
    in
    let busy =
      frequency [ (5, int_range 1 4); (2, int_range 5 40); (1, int_range 41 96) ]
    in
    frequency
      [
        (6, map3 (fun p r b -> Claim (p, r, b)) (int_bound 1) ready busy);
        (1, map3 (fun p r n -> Fill (p, r, n)) (int_bound 1) ready (int_range 1 100));
        (4, map2 (fun p r -> Peek (p, r)) (int_bound 1) ready);
        (1, return Reset);
      ])

let print_port_op = function
  | Claim (p, r, b) -> Printf.sprintf "claim p%d ready=%d busy=%d" p r b
  | Fill (p, r, n) -> Printf.sprintf "%d claims p%d ready=%d" n p r
  | Peek (p, r) -> Printf.sprintf "peek p%d ready=%d" p r
  | Reset -> "reset"

(* Every claim and peek returns the earliest fit at or after [ready], as
   a naive occupied-cycle set computes it, and no two claims share a
   cycle; resets free every cycle. *)
let prop_port_schedule_no_overlap =
  QCheck.Test.make ~name:"port slots never collide" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_port_op)
       QCheck.Gen.(list_size (int_range 1 60) port_op_gen))
    (fun ops ->
      let ps = Uarch.Port_schedule.create ~n_ports:2 in
      let used = Array.init 2 (fun _ -> Hashtbl.create 64) in
      let free p c = not (Hashtbl.mem used.(p) c) in
      let rec fits p s busy = busy = 0 || (free p s && fits p (s + 1) (busy - 1)) in
      let rec earliest p s busy = if fits p s busy then s else earliest p (s + 1) busy in
      let claim port ready busy =
        let want = earliest port (max 0 ready) busy in
        let start = Uarch.Port_schedule.claim ps ~port ~ready ~busy in
        for c = start to start + busy - 1 do
          Hashtbl.replace used.(port) c ()
        done;
        start = want
      in
      List.for_all
        (function
          | Claim (port, ready, busy) -> claim port ready busy
          | Fill (port, ready, n) ->
            List.for_all (fun _ -> claim port ready 1) (List.init n Fun.id)
          | Peek (port, ready) ->
            Uarch.Port_schedule.peek ps ~port ~ready = earliest port (max 0 ready) 1
          | Reset ->
            Uarch.Port_schedule.reset ps;
            Array.iter Hashtbl.reset used;
            true)
        ops)

let suite =
  [
    Alcotest.test_case "port sets" `Quick test_port_sets;
    Alcotest.test_case "decompose total" `Quick test_decompose_total;
    Alcotest.test_case "eliminations" `Quick test_eliminations;
    Alcotest.test_case "micro fusion" `Quick test_micro_fusion;
    Alcotest.test_case "ivb ymm split" `Quick test_ivb_ymm_split;
    Alcotest.test_case "uarch differences" `Quick test_uarch_differences;
    Alcotest.test_case "port combination count" `Quick test_port_combination_count;
    Alcotest.test_case "port schedule" `Quick test_port_schedule;
    QCheck_alcotest.to_alcotest prop_port_schedule_no_overlap;
  ]
