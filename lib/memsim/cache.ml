(** Set-associative cache model with true-LRU replacement.

    The model is physically indexed and physically tagged, which for the
    L1 caches of the modelled microarchitectures (32 KiB, 8-way, 64 B
    lines: 64 sets, index bits 6..11) is behaviourally identical to
    Intel's virtually-indexed/physically-tagged design, because the index
    bits lie entirely within the page offset. This is exactly the property
    BHive exploits: aliasing every virtual page onto one physical frame
    makes all accesses hit the same 64 physical lines.

    Set counts and line sizes are powers of two, so an address's line is
    a shift and a line's set a mask. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (** log2 [line_bytes] *)
  set_mask : int;  (** [sets - 1] *)
  (* Way [w] of set [s] is slot [s * ways + w] of both arrays: [tags]
     holds its line, -1 when invalid, and [lru] its last-use stamp. One
     flat array each makes [flush] two fills. Lines are native ints:
     physical addresses stay far below 2^62. *)
  tags : int array;
  lru : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  (* The slot the last access touched, probed before the set search. *)
  mutable recent : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ~size_bytes ~ways ~line_bytes =
  if ways <= 0 || line_bytes <= 0 || size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by ways*line";
  let sets = size_bytes / (ways * line_bytes) in
  if not (is_power_of_two sets && is_power_of_two line_bytes) then
    invalid_arg "Cache.create: set count and line size must be powers of two";
  {
    sets;
    ways;
    line_bytes;
    line_shift = log2 line_bytes;
    set_mask = sets - 1;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    clock = 0;
    hits = 0;
    misses = 0;
    recent = 0;
  }

(* Standard Intel L1: 32 KiB, 8-way, 64-byte lines. *)
let l1_default () = create ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64

(* First and last line touched by [size] bytes at [addr]. *)
let first_line t addr = addr lsr t.line_shift

let last_line t addr ~size = (addr + if size > 1 then size - 1 else 0) lsr t.line_shift

(* Slot in [i, limit) of [tags] holding [line], or -1. The types are
   written out: a polymorphic search would compare each way's tag
   through the runtime's polymorphic equality. *)
let rec find_slot (tags : int array) (line : int) i limit =
  if i >= limit then -1
  else if tags.(i) = line then i
  else find_slot tags line (i + 1) limit

(* Access one line; returns true on hit. A line is held in at most one
   slot, always in its own set, so finding it in the slot the last
   access touched is the hit the set search would find; lines are
   non-negative, so an invalid slot (-1) never matches. Most fetches
   repeat the previous line. *)
let access_line t line =
  t.clock <- t.clock + 1;
  let r = t.recent in
  if t.tags.(r) = line then begin
    t.lru.(r) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let base = (line land t.set_mask) * t.ways in
    let limit = base + t.ways in
    let i = find_slot t.tags line base limit in
    if i >= 0 then begin
      t.lru.(i) <- t.clock;
      t.hits <- t.hits + 1;
      t.recent <- i;
      true
    end
    else begin
      (* Evict the least recently used way. *)
      let lru = t.lru in
      let victim = ref base in
      for i = base + 1 to limit - 1 do
        if lru.(i) < lru.(!victim) then victim := i
      done;
      t.tags.(!victim) <- line;
      lru.(!victim) <- t.clock;
      t.misses <- t.misses + 1;
      t.recent <- !victim;
      false
    end
  end

(** Access [size] bytes at physical address [addr]; returns the number of
    line misses (0, 1 or 2 — an access crossing a line boundary touches
    two lines, the event BHive's MISALIGNED_MEM_REFERENCE filter
    detects). *)
let access t ~addr ~size =
  let misses = ref 0 in
  for line = first_line t addr to last_line t addr ~size do
    if not (access_line t line) then incr misses
  done;
  !misses

let crosses_line t ~addr ~size = first_line t addr < last_line t addr ~size

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.clock <- 0;
  reset_stats t
