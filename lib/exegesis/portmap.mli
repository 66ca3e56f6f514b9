(** Port-mapping inference in the style of Abel and Reineke (uops.info):
    saturate candidate port sets with single-port blocker instructions
    and find the smallest set the target instruction cannot escape. *)

(** A blocker instance for the given port (0, 1 or 5); [k] selects
    registers so that instances are independent. Raises on unsupported
    ports. *)
val blocker_for_port : int -> int -> X86.Inst.t

(** Ports for which single-port blockers exist on all modelled
    microarchitectures. *)
val supported_ports : int list

type entry = {
  name : string;
  inferred : Uarch.Port.set option;
  expected : Uarch.Port.set option;  (** from the uarch table *)
}

(** First execution-port set of the instruction per the uarch table
    (the reference the inference is checked against). *)
val expected_ports : Uarch.Descriptor.t -> X86.Inst.t -> Uarch.Port.set option

val survey :
  engine:Engine.t ->
  Uarch.Descriptor.t -> (string * X86.Inst.t) list -> entry list

(** Non-accumulating target forms whose port sets the survey infers. *)
val standard_targets : (string * X86.Inst.t) list

val pp_survey : Format.formatter -> entry list -> unit
