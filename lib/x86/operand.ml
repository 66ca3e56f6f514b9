(** Instruction operands: immediates, registers, and memory references. *)

type mem = {
  base : Reg.t option;
  index : Reg.t option;
  scale : int;  (** 1, 2, 4 or 8 *)
  disp : int64;
}

type t =
  | Imm of int64
  | Reg of Reg.t
  | Mem of mem

let imm i = Imm i

let mem ?base ?index ?(scale = 1) ?(disp = 0L) () =
  if scale <> 1 && scale <> 2 && scale <> 4 && scale <> 8 then
    invalid_arg (Printf.sprintf "Operand.mem: bad scale %d" scale);
  (match index with
  | Some r when not (Reg.is_gpr r) -> invalid_arg "Operand.mem: index must be a GPR"
  | _ -> ());
  Mem { base; index; scale; disp }

let is_mem = function Mem _ -> true | _ -> false
let is_reg = function Reg _ -> true | _ -> false
let is_imm = function Imm _ -> true | _ -> false

let equal_mem (a : mem) b =
  (match (a.base, b.base) with
  | None, None -> true
  | Some x, Some y -> Reg.equal x y
  | _ -> false)
  && (match (a.index, b.index) with
     | None, None -> true
     | Some x, Some y -> Reg.equal x y
     | _ -> false)
  && a.scale = b.scale
  && Int64.equal a.disp b.disp

let equal a b =
  match (a, b) with
  | Imm x, Imm y -> Int64.equal x y
  | Reg x, Reg y -> Reg.equal x y
  | Mem x, Mem y -> equal_mem x y
  | _ -> false

(* Registers read when computing the effective address of [m]. *)
let mem_regs (m : mem) =
  let add acc = function Some r -> r :: acc | None -> acc in
  add (add [] m.index) m.base

let pp_mem fmt (m : mem) =
  (* AT&T: disp(base, index, scale); negative displacements print signed. *)
  if not (Int64.equal m.disp 0L) || (m.base = None && m.index = None) then
    if Int64.compare m.disp 0L < 0 then Format.fprintf fmt "-0x%Lx" (Int64.neg m.disp)
    else Format.fprintf fmt "0x%Lx" m.disp;
  match (m.base, m.index) with
  | None, None -> ()
  | Some b, None -> Format.fprintf fmt "(%%%s)" (Reg.name b)
  | None, Some i -> Format.fprintf fmt "(, %%%s, %d)" (Reg.name i) m.scale
  | Some b, Some i ->
    Format.fprintf fmt "(%%%s, %%%s, %d)" (Reg.name b) (Reg.name i) m.scale

let pp fmt = function
  | Imm i ->
    if Int64.compare i 0L >= 0 && Int64.compare i 4096L < 0 then
      Format.fprintf fmt "$%Ld" i
    else Format.fprintf fmt "$0x%Lx" i
  | Reg r -> Format.fprintf fmt "%%%s" (Reg.name r)
  | Mem m -> pp_mem fmt m
