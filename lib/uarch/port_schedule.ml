(** Per-port issue-slot allocation with backfill.

    Each execution port accepts one micro-op per cycle. A dataflow
    scheduler processing uops in program order must still allow a young,
    early-ready uop to claim a port cycle that precedes slots already
    given to older uops (out-of-order issue). This structure answers
    "first free cycle >= t on port p" and "first run of [busy] free
    cycles >= t on port p".

    Each port keeps a bitmap of its occupied cycles, 32 cycles to an int
    word (cycle [c] is bit [c land 31] of word [c lsr 5]), and its free
    tail: the first cycle past every claim. Every cycle from the tail on
    is free, so a query at or past it answers without reading the
    bitmap; below it, a query scans whole words and finds the first free
    or occupied bit of a word with a de Bruijn multiply. The words grow
    by doubling and are kept across simulated blocks: [reset] clears the
    words below each port's tail, and nothing else allocates. *)

type port = {
  mutable words : int array;  (** occupied cycles, 32 to a word *)
  mutable tail : int;  (** first cycle past every claim since [reset] *)
}

type t = port array

let full = 0xFFFF_FFFF

(* Bits [b] to 31 of a word. *)
let from_bit b = (full lsl b) land full

let create ~n_ports = Array.init n_ports (fun _ -> { words = Array.make 8 0; tail = 0 })

(* Index of the lowest set bit of [x], a nonzero 32-bit word: [x land
   (-x)] isolates that bit, and multiplying the bit by a de Bruijn
   constant leaves a distinct five-bit pattern in the product's top five
   of 32 bits. *)
let debruijn = 0x077C_B531

let ctz_table =
  let table = Array.make 32 0 in
  for i = 0 to 31 do
    table.((((1 lsl i) * debruijn) land full) lsr 27) <- i
  done;
  table

let ctz x = ctz_table.((((x land (-x)) * debruijn) land full) lsr 27)

(* First free cycle among the cycles [mask] selects in word [w] and all
   cycles of later words. It only runs below the tail, and the tail's own
   cycle is free, so the scan stops at the tail's word at the latest. *)
let rec free_from words w mask =
  let free = lnot words.(w) land mask in
  if free <> 0 then (w lsl 5) + ctz free else free_from words (w + 1) full

let first_free p c =
  if c >= p.tail then c else free_from p.words (c lsr 5) (from_bit (c land 31))

(* First occupied cycle below [limit] (at most the tail) from the
   cycles [mask] selects in word [w] on, or [limit] when there is none. *)
let rec used_from words w mask limit =
  if w lsl 5 >= limit then limit
  else
    let used = words.(w) land mask in
    if used <> 0 then Int.min limit ((w lsl 5) + ctz used)
    else used_from words (w + 1) full limit

(** First free cycle >= [ready] on [port], without claiming it. *)
let peek t ~port ~ready = first_free t.(port) (Int.max 0 ready)

(* Earliest free cycle >= [s], itself free, that begins [busy] free
   cycles. Cycles past the tail are all free, so only the run's part
   below the tail is checked. *)
let rec find_run p ~busy s =
  let limit = Int.min (s + busy) p.tail in
  if s >= limit then s
  else
    let u = used_from p.words (s lsr 5) (from_bit (s land 31)) limit in
    if u >= limit then s else find_run p ~busy (first_free p (u + 1))

(* Mark cycles [s] to [e - 1] occupied, growing the words so that the
   word of the new tail exists. *)
let occupy p s e =
  if e lsr 5 >= Array.length p.words then begin
    let n = ref (2 * Array.length p.words) in
    while e lsr 5 >= !n do
      n := 2 * !n
    done;
    let words = Array.make !n 0 in
    Array.blit p.words 0 words 0 (Array.length p.words);
    p.words <- words
  end;
  let w0 = s lsr 5 and w1 = (e - 1) lsr 5 in
  for w = w0 to w1 do
    let lo = if w = w0 then s land 31 else 0
    and hi = if w = w1 then (e - 1) land 31 else 31 in
    p.words.(w) <- p.words.(w) lor (from_bit lo land (full lsr (31 - hi)))
  done;
  if e > p.tail then p.tail <- e

(** Claim [busy] consecutive free cycles, the first starting at or after
    [ready] on [port]; returns the start cycle. *)
let claim t ~port ~ready ~busy =
  let p = t.(port) in
  let start = find_run p ~busy (first_free p (Int.max 0 ready)) in
  if busy > 0 then occupy p start (start + busy);
  start

(** Forget every claim, clearing only the words that hold one; the words
    are kept. *)
let reset t =
  Array.iter
    (fun p ->
      Array.fill p.words 0 ((p.tail + 31) lsr 5) 0;
      p.tail <- 0)
    t
