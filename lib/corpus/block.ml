(** A basic block in the benchmark suite: the instruction sequence plus
    collection metadata (source application and dynamic execution
    frequency, as recorded by the tracer). *)

open X86

type t = {
  id : string;  (** unique identifier, e.g. "tensorflow/1234" *)
  app : string;  (** source application *)
  insts : Inst.t list;
  freq : int;  (** dynamic execution count (weighted-error weight) *)
}

let make ~id ~app ?(freq = 1) insts = { id; app; insts; freq }

let length t = List.length t.insts

let has_memory_access t = List.exists Inst.has_mem t.insts

let uses_avx2 t = List.exists Inst.requires_avx2 t.insts

let text t = String.concat "\n" (List.map Inst.to_string t.insts)
