(** Micro-ops: the unit of execution scheduling. *)

type kind =
  | Exec  (** computation on an execution port *)
  | Load  (** load-pipeline uop (AGU + data return) *)
  | Store_addr  (** store-address generation *)
  | Store_data  (** store-data write *)

type t = {
  kind : kind;
  ports : Port.set;  (** candidate issue ports *)
  latency : int;  (** cycles from issue to result availability *)
}

let exec ?(latency = 1) ports = { kind = Exec; ports; latency }
let load ~latency ports = { kind = Load; ports; latency }
let store_addr ports = { kind = Store_addr; ports; latency = 1 }
let store_data ports = { kind = Store_data; ports; latency = 1 }

let kind_name = function
  | Exec -> "exec"
  | Load -> "load"
  | Store_addr -> "staddr"
  | Store_data -> "stdata"

(** Decomposition of one instruction into micro-ops. *)
type decomp = {
  uops : t list;  (** unfused-domain uops, program order *)
  fused_slots : int;
      (** fused-domain slots consumed in the front end (micro-fusion makes
          a load-op pair occupy a single slot) *)
  eliminated : bool;
      (** handled at rename (zero idiom, eliminated move): consumes a
          front-end slot but no execution resources and has zero latency *)
}

let decomp ?(eliminated = false) ?fused_slots uops =
  let fused_slots =
    match fused_slots with Some n -> n | None -> max 1 (List.length uops)
  in
  { uops; fused_slots; eliminated }
