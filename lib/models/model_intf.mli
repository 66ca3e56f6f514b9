(** Common interface of the evaluated throughput predictors. *)

type prediction =
  | Throughput of float  (** predicted cycles per iteration *)
  | Unsupported of string
      (** the tool failed on this block (the '-' entries in the paper's
          case-study table) *)

(** A predicted execution schedule, for the scheduling case-study
    figure. *)
type schedule_entry = {
  inst_index : int;  (** instruction index within the block *)
  iteration : int;
  port : int;
  dispatch : int;  (** cycle the micro-op issued *)
  complete : int;
}

type t = {
  name : string;
  predict : X86.Inst.t list -> prediction;
  schedule : (X86.Inst.t list -> schedule_entry list) option;
      (** [None] for black-box predictors (Ithemal) *)
}
