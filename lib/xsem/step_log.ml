(** The record of one execution: for every executed instruction (a
    step), the memory accesses it made in program order and the events
    it raised, kept in flat int arrays that grow by doubling. Step [i]
    executes block instruction [i mod n]. An instruction's accesses and
    events are appended while it runs and become a step on [commit]; a
    fault [rollback]s them, so the log only ever holds completed steps.
    [pack] writes the committed steps as varints into a byte buffer
    outside the OCaml heap, and [unpack] reads them back into a fresh
    log. *)

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
  let steps = Int.max 1 steps in
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

let inst t i = t.block.(i mod Array.length t.block)
let has_event t i e = t.events.(i) land bit e <> 0

let any_event t e =
  let b = bit e in
  let rec go i = i < t.steps && (t.events.(i) land b <> 0 || go (i + 1)) in
  go 0

(* Every comparison is at type int, or [Bool.equal]. *)
let equal_prefix a b ~steps:k =
  k <= a.steps && k <= b.steps
  &&
  let rec same_steps i =
    i >= k
    || Int.equal a.events.(i) b.events.(i)
       && Int.equal a.first.(i + 1) b.first.(i + 1)
       && same_steps (i + 1)
  in
  same_steps 0
  &&
  let rec same_accesses j =
    j >= a.first.(k)
    || Int.equal a.vaddr.(j) b.vaddr.(j)
       && Int.equal a.paddr.(j) b.paddr.(j)
       && Int.equal a.size.(j) b.size.(j)
       && Bool.equal a.store.(j) b.store.(j)
       && same_accesses (j + 1)
  in
  same_accesses 0

(* --- packing ------------------------------------------------------------ *)

type buf = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The packed form is a sequence of varints, seven bits to a byte: the
   step and access counts, then the steps. A step is one varint
   [accesses lsl 4 lor events] (event masks use four bits), then per
   access a varint [size lsl 1 lor store] and the zigzag-encoded changes,
   from the previous access, of its vaddr and of its paddr's offset from
   its vaddr, which stays put while accesses stay on one page. Steps go
   in iterations of one block copy each (the last may be shorter). An
   unrolled block soon repeats itself, so each iteration is followed by
   the number of times it occurs in a row, and the repeats are not
   written: steady-state logs pack four times smaller. *)
let rec add_varint b v =
  if v land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr v)
  else begin
    Buffer.add_char b (Char.unsafe_chr (v land 0x7f lor 0x80));
    add_varint b (v lsr 7)
  end

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* The changes of access [a]'s vaddr, and of its paddr's offset from
   its vaddr, from the access before it (from 0 for the first). *)
let vaddr_step t a = t.vaddr.(a) - if a = 0 then 0 else t.vaddr.(a - 1)

let offset_step t a =
  (t.paddr.(a) - t.vaddr.(a)) - if a = 0 then 0 else t.paddr.(a - 1) - t.vaddr.(a - 1)

(* Do the [k] steps from [p] and the [k] steps from [i] pack to the same
   bytes? They do when their event masks, access counts, sizes,
   directions and vaddr and offset steps agree. *)
let same_iteration t p i k =
  let same = ref true and s = ref 0 in
  while !same && !s < k do
    same :=
      t.events.(p + !s) = t.events.(i + !s)
      && t.first.(p + !s + 1) - t.first.(p + !s) = t.first.(i + !s + 1) - t.first.(i + !s);
    incr s
  done;
  let pa = t.first.(p) and ia = t.first.(i) in
  let j = ref 0 and m = t.first.(i + k) - ia in
  while !same && !j < m do
    let a = pa + !j and b = ia + !j in
    same :=
      t.size.(a) = t.size.(b)
      && Bool.equal t.store.(a) t.store.(b)
      && vaddr_step t a = vaddr_step t b
      && offset_step t a = offset_step t b;
    incr j
  done;
  !same

let add_iteration t out i k =
  for s = i to i + k - 1 do
    add_varint out (((t.first.(s + 1) - t.first.(s)) lsl 4) lor t.events.(s));
    for a = t.first.(s) to t.first.(s + 1) - 1 do
      add_varint out ((t.size.(a) lsl 1) lor if t.store.(a) then 1 else 0);
      add_varint out (zigzag (vaddr_step t a));
      add_varint out (zigzag (offset_step t a))
    done
  done

(* An iteration is compared with the one before it on the log's own
   arrays, and only one that differs is encoded. *)
let pack t out =
  let n = Int.max 1 (Array.length t.block) in
  add_varint out t.steps;
  add_varint out t.first.(t.steps);
  let repeats = ref 0 and last_steps = ref 0 in
  let i = ref 0 in
  while !i < t.steps do
    let k = Int.min n (t.steps - !i) in
    if !repeats > 0 && k = !last_steps && same_iteration t (!i - k) !i k then incr repeats
    else begin
      if !repeats > 0 then add_varint out !repeats;
      add_iteration t out !i k;
      repeats := 1;
      last_steps := k
    end;
    i := !i + k
  done;
  if !repeats > 0 then add_varint out !repeats

type cursor = { src : buf; mutable pos : int; mutable vaddr : int; mutable offset : int }

let rec get_varint c acc shift =
  let b = Bigarray.Array1.get c.src c.pos in
  c.pos <- c.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else get_varint c acc (shift + 7)

(* Decode steps [i, i + k) into [t]. *)
let get_steps c t i k =
  for s = i to i + k - 1 do
    let v = get_varint c 0 0 in
    t.events.(s) <- v land 0xf;
    t.first.(s + 1) <- t.first.(s) + (v lsr 4);
    for a = t.first.(s) to t.first.(s + 1) - 1 do
      let v = get_varint c 0 0 in
      t.size.(a) <- v lsr 1;
      t.store.(a) <- v land 1 = 1;
      c.vaddr <- c.vaddr + unzigzag (get_varint c 0 0);
      c.offset <- c.offset + unzigzag (get_varint c 0 0);
      t.vaddr.(a) <- c.vaddr;
      t.paddr.(a) <- c.vaddr + c.offset
    done
  done

let unpack (buf : buf) ~pos block ~into:t =
  let c = { src = buf; pos; vaddr = 0; offset = 0 } in
  let steps = get_varint c 0 0 in
  let accesses = get_varint c 0 0 in
  (* The arrays' old contents are overwritten, so they are replaced, not
     grown. [first.(0)] is 0 in every log. *)
  let n = Int.max 1 steps and m = Int.max 1 accesses in
  if Array.length t.events < n then begin
    t.events <- Array.make n 0;
    t.first <- Array.make (n + 1) 0
  end;
  if Array.length t.vaddr < m then begin
    t.vaddr <- Array.make m 0;
    t.paddr <- Array.make m 0;
    t.size <- Array.make m 0;
    t.store <- Array.make m false
  end;
  t.block <- block;
  t.steps <- steps;
  t.pending <- 0;
  t.accesses <- accesses;
  let per_iteration = Int.max 1 (Array.length block) in
  let i = ref 0 in
  while !i < steps do
    let k = Int.min per_iteration (steps - !i) in
    let start = c.pos in
    get_steps c t !i k;
    let repeats = get_varint c 0 0 in
    for r = 1 to repeats - 1 do
      c.pos <- start;
      get_steps c t (!i + (r * k)) k
    done;
    if repeats > 1 then ignore (get_varint c 0 0);
    i := !i + (repeats * k)
  done
