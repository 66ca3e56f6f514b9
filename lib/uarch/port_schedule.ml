(** Per-port issue-slot allocation with backfill.

    Each execution port accepts one micro-op per cycle. A dataflow
    scheduler processing uops in program order must still allow a young,
    early-ready uop to claim a port cycle that precedes slots already
    given to older uops (out-of-order issue). This structure answers
    "first free cycle >= t on port p" in near-constant amortised time via
    a disjoint-set forest over occupied cycles.

    The forest is stored in open-addressed int arrays (linear probing)
    with an epoch stamp per slot, so [reset] is O(ports) and the
    simulator's cycle loop performs no allocation and no [Hashtbl]
    operations: arrays grow geometrically and are reused across
    simulated blocks.

    Each port also keeps its free tail: the first cycle past every
    claim. Every cycle from there on is free, so a query at or beyond
    it is answered without probing. *)

type port = {
  (* occupied cycle -> candidate later cycle; a slot belongs to the
     current epoch only when its stamp matches, so stale entries from
     previous simulations are free without clearing the arrays *)
  mutable keys : int array;
  mutable nexts : int array;
  mutable stamps : int array;
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable live : int;
  mutable tail : int;  (** first cycle past every claim of this epoch *)
}

type t = { ports : port array; mutable epoch : int }

let initial_capacity = 128

let make_port () =
  {
    keys = Array.make initial_capacity 0;
    nexts = Array.make initial_capacity 0;
    stamps = Array.make initial_capacity (-1);
    mask = initial_capacity - 1;
    live = 0;
    tail = 0;
  }

let create ~n_ports = { ports = Array.init n_ports (fun _ -> make_port ()); epoch = 0 }

(* Fibonacci-style multiplicative hash; cycles are small non-negative
   ints, the multiply spreads consecutive values across the table. *)
let hash c = (c * 0x9E3779B1) lxor (c lsr 16)

(* Slot index of [k], or [-insert_position - 1] when absent. *)
let rec probe_from p ~epoch k i =
  if p.stamps.(i) <> epoch then -i - 1
  else if p.keys.(i) = k then i
  else probe_from p ~epoch k ((i + 1) land p.mask)

let probe p ~epoch k = probe_from p ~epoch k (hash k land p.mask)

let grow p ~epoch =
  let old_keys = p.keys and old_nexts = p.nexts and old_stamps = p.stamps in
  let cap = 2 * (p.mask + 1) in
  p.keys <- Array.make cap 0;
  p.nexts <- Array.make cap 0;
  p.stamps <- Array.make cap (-1);
  p.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    if old_stamps.(i) = epoch then begin
      let j = -probe p ~epoch old_keys.(i) - 1 in
      p.keys.(j) <- old_keys.(i);
      p.nexts.(j) <- old_nexts.(i);
      p.stamps.(j) <- epoch
    end
  done

let set p ~epoch k v =
  let i = probe p ~epoch k in
  if i >= 0 then p.nexts.(i) <- v
  else begin
    if 2 * (p.live + 1) > p.mask + 1 then grow p ~epoch;
    let i = -probe p ~epoch k - 1 in
    p.keys.(i) <- k;
    p.nexts.(i) <- v;
    p.stamps.(i) <- epoch;
    p.live <- p.live + 1
  end

let rec find p ~epoch c =
  let i = if c >= p.tail then -1 else probe p ~epoch c in
  if i < 0 then c
  else begin
    let c' = p.nexts.(i) in
    let root = find p ~epoch c' in
    if root <> c' then p.nexts.(i) <- root;
    root
  end

(** First free cycle >= [ready] on port [p], without claiming it. *)
let peek t ~port ~ready = find t.ports.(port) ~epoch:t.epoch (max 0 ready)

(* First occupied cycle among [start+k .. start+busy-1], or -1 when all
   are free (cycles are non-negative, so -1 flags a clean run). *)
let rec first_blocked p ~epoch ~busy start k =
  if k >= busy then -1
  else
    let c = find p ~epoch (start + k) in
    if c = start + k then first_blocked p ~epoch ~busy start (k + 1) else c

(* Earliest free cycle >= [start] that begins [busy] free cycles. *)
let rec find_run p ~epoch ~busy start =
  let blocked = first_blocked p ~epoch ~busy start 1 in
  if blocked < 0 then start else find_run p ~epoch ~busy (find p ~epoch blocked)

(** Claim [busy] consecutive free cycles, the first starting at or after
    [ready] on [port]; returns the start cycle. *)
let claim t ~port ~ready ~busy =
  let p = t.ports.(port) and epoch = t.epoch in
  let start = find_run p ~epoch ~busy (find p ~epoch (max 0 ready)) in
  for c = start to start + busy - 1 do
    set p ~epoch c (c + 1)
  done;
  if start + busy > p.tail then p.tail <- start + busy;
  start

(** Forget every claim; O(ports), the backing arrays are retained. *)
let reset t =
  t.epoch <- t.epoch + 1;
  Array.iter
    (fun p ->
      p.live <- 0;
      p.tail <- 0)
    t.ports
