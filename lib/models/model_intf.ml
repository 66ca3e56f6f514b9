(** Common interface of the evaluated throughput predictors. *)

open X86

type prediction =
  | Throughput of float
  | Unsupported of string
      (** the tool failed on this block (the '-' entries in the paper's
          case-study table) *)

(* A predicted execution schedule, for the scheduling case-study figure:
   (instruction index within block, iteration, port, dispatch cycle,
   completion cycle). *)
type schedule_entry = {
  inst_index : int;
  iteration : int;
  port : int;
  dispatch : int;
  complete : int;
}

type t = {
  name : string;
  predict : Inst.t list -> prediction;
  schedule : (Inst.t list -> schedule_entry list) option;
      (** None for black-box predictors (Ithemal) *)
}
