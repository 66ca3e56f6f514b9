(** A basic block in the benchmark suite: instruction sequence plus
    collection metadata. *)

type t = {
  id : string;  (** unique identifier, e.g. "tensorflow/1234" *)
  app : string;  (** source application *)
  insts : X86.Inst.t list;
  freq : int;  (** dynamic execution count (weighted-error weight) *)
}

val make : id:string -> app:string -> ?freq:int -> X86.Inst.t list -> t

(** Number of instructions. *)
val length : t -> int

val has_memory_access : t -> bool

(** Uses AVX2-class instructions (excluded from Ivy Bridge validation). *)
val uses_avx2 : t -> bool

(** The block as newline-separated AT&T assembly. *)
val text : t -> string
