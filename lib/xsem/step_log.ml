(** The record of one execution: for every executed instruction (a
    step), the memory accesses it made in program order and the events
    it raised, kept in flat int arrays that grow by doubling. Step [i]
    executes block instruction [i mod n]. An instruction's accesses and
    events are appended while it runs and become a step on [commit]; a
    fault [rollback]s them, so the log only ever holds completed steps. *)

type event =
  | Subnormal  (** FP operation consumed or produced a subnormal *)
  | Div_fast_path  (** division with zeroed high half of the dividend *)
  | Div_slow_path  (** full-width dividend division *)
  | Div_by_zero  (** #DE; the profiled process would die with SIGFPE *)

let bit = function
  | Subnormal -> 1
  | Div_fast_path -> 2
  | Div_slow_path -> 4
  | Div_by_zero -> 8

type t = {
  mutable block : X86.Inst.t array;
  mutable steps : int;  (** committed steps *)
  mutable events : int array;  (** per committed step, an event mask *)
  mutable first : int array;
      (** [first.(i)]: index of step [i]'s first access; [first.(steps)]
          is the committed access count *)
  mutable pending : int;  (** event mask of the open step *)
  mutable accesses : int;  (** accesses recorded, the open step's included *)
  mutable vaddr : int array;
  mutable paddr : int array;
  mutable size : int array;
  mutable store : bool array;
}

(* The step arrays are sized for [steps] steps and the access arrays
   for one access per step; all grow by doubling when a run outgrows
   them. *)
let create ~steps =
  let steps = max 1 steps in
  {
    block = [||];
    steps = 0;
    events = Array.make steps 0;
    first = Array.make (steps + 1) 0;
    pending = 0;
    accesses = 0;
    vaddr = Array.make steps 0;
    paddr = Array.make steps 0;
    size = Array.make steps 0;
    store = Array.make steps false;
  }

let start t block =
  t.block <- block;
  t.steps <- 0;
  t.pending <- 0;
  t.accesses <- 0

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let access t ~vaddr ~paddr ~size ~store =
  let a = t.accesses in
  if a = Array.length t.vaddr then begin
    t.vaddr <- grow t.vaddr 0;
    t.paddr <- grow t.paddr 0;
    t.size <- grow t.size 0;
    t.store <- grow t.store false
  end;
  t.vaddr.(a) <- vaddr;
  t.paddr.(a) <- paddr;
  t.size.(a) <- size;
  t.store.(a) <- store;
  t.accesses <- a + 1

let event t e = t.pending <- t.pending lor bit e

let commit t =
  let i = t.steps in
  if i = Array.length t.events then begin
    t.events <- grow t.events 0;
    t.first <- grow t.first 0
  end;
  t.events.(i) <- t.pending;
  t.first.(i + 1) <- t.accesses;
  t.steps <- i + 1;
  t.pending <- 0

let rollback t =
  t.accesses <- t.first.(t.steps);
  t.pending <- 0

let block t = t.block
let steps t = t.steps
let inst t i = t.block.(i mod Array.length t.block)
let events t i = t.events.(i)
let has_event t i e = t.events.(i) land bit e <> 0

let any_event t e =
  let b = bit e in
  let rec go i = i < t.steps && (t.events.(i) land b <> 0 || go (i + 1)) in
  go 0

let accesses t = t.accesses
let first_access t i = t.first.(i)
let vaddr t a = t.vaddr.(a)
let paddr t a = t.paddr.(a)
let size t a = t.size.(a)
let is_store t a = t.store.(a)
