(** Set-associative cache model with true-LRU replacement.

    The model is physically indexed and physically tagged, which for the
    L1 caches of the modelled microarchitectures (32 KiB, 8-way, 64 B
    lines: 64 sets, index bits 6..11) is behaviourally identical to
    Intel's virtually-indexed/physically-tagged design, because the index
    bits lie entirely within the page offset. This is exactly the property
    BHive exploits: aliasing every virtual page onto one physical frame
    makes all accesses hit the same 64 physical lines. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  (* tags.(set) is an array of line tags, -1 when invalid;
     lru.(set).(way) is the last-use stamp. Lines are native ints:
     physical addresses stay far below 2^62. *)
  tags : int array array;
  lru : int array array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~size_bytes ~ways ~line_bytes =
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by ways*line";
  let sets = size_bytes / (ways * line_bytes) in
  {
    sets;
    ways;
    line_bytes;
    tags = Array.init sets (fun _ -> Array.make ways (-1));
    lru = Array.init sets (fun _ -> Array.make ways 0);
    clock = 0;
    hits = 0;
    misses = 0;
  }

(* Standard Intel L1: 32 KiB, 8-way, 64-byte lines. *)
let l1_default () = create ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64

(* First and last line touched by [size] bytes at [addr]. *)
let first_line t addr = addr / t.line_bytes

let last_line t addr ~size = (addr + if size > 1 then size - 1 else 0) / t.line_bytes

(* Way of [tags] holding [line], or -1. *)
let rec find_way tags line w =
  if w >= Array.length tags then -1
  else if tags.(w) = line then w
  else find_way tags line (w + 1)

(* Access one line; returns true on hit. *)
let access_line t line =
  t.clock <- t.clock + 1;
  let set = line mod t.sets in
  let tags = t.tags.(set) and lru = t.lru.(set) in
  let w = find_way tags line 0 in
  if w >= 0 then begin
    lru.(w) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    (* Evict the least recently used way. *)
    let victim = ref 0 in
    for w = 1 to t.ways - 1 do
      if lru.(w) < lru.(!victim) then victim := w
    done;
    tags.(!victim) <- line;
    lru.(!victim) <- t.clock;
    t.misses <- t.misses + 1;
    false
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
  Array.iter (fun set -> Array.fill set 0 (Array.length set) (-1)) t.tags;
  Array.iter (fun set -> Array.fill set 0 (Array.length set) 0) t.lru;
  t.clock <- 0;
  reset_stats t
