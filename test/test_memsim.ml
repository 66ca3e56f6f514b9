let test_valid_addresses () =
  let v = Memsim.Fault.is_valid_address in
  Alcotest.(check bool) "null page" false (v 0L);
  Alcotest.(check bool) "low" false (v 0xFFFL);
  Alcotest.(check bool) "first valid" true (v 0x1000L);
  Alcotest.(check bool) "typical" true (v 0x12345600L);
  Alcotest.(check bool) "too high" false (v 0x7FFF_FFFF_F000L);
  Alcotest.(check bool) "non canonical" false (v 0x1234560012345600L);
  Alcotest.(check bool) "negative" false (v (-1L))

let test_page_arith () =
  Alcotest.(check int64) "page" 0x12345L (Memsim.Fault.page_of_address 0x12345600L);
  Alcotest.(check int64) "addr" 0x12345000L (Memsim.Fault.address_of_page 0x12345L);
  Alcotest.(check int) "offset" 0x600 (Memsim.Fault.offset_in_page 0x12345600L)

let test_phys_fill () =
  let p = Memsim.Phys_mem.create () in
  let pfn = Memsim.Phys_mem.allocate p in
  Memsim.Phys_mem.fill_const p pfn 0x12345600l;
  Alcotest.(check int) "byte 0" 0x00 (Memsim.Phys_mem.read_byte p pfn 0);
  Alcotest.(check int) "byte 1" 0x56 (Memsim.Phys_mem.read_byte p pfn 1);
  Alcotest.(check int) "byte 2" 0x34 (Memsim.Phys_mem.read_byte p pfn 2);
  Alcotest.(check int) "byte 3" 0x12 (Memsim.Phys_mem.read_byte p pfn 3);
  Alcotest.(check int) "repeats" 0x56 (Memsim.Phys_mem.read_byte p pfn 4093)

let test_page_table_aliasing () =
  let t = Memsim.Page_table.create () in
  Memsim.Page_table.map t ~vpn:1L ~pfn:42L;
  Memsim.Page_table.map t ~vpn:2L ~pfn:42L;
  Memsim.Page_table.map t ~vpn:3L ~pfn:43L;
  Alcotest.(check int) "count" 3 (Memsim.Page_table.count t);
  Alcotest.(check int) "frames" 2 (Memsim.Page_table.distinct_frames t);
  Alcotest.(check bool) "translate" true (Memsim.Page_table.translate_page t 2L = Some 42L);
  Memsim.Page_table.unmap t 2L;
  Alcotest.(check bool) "unmapped" true (Memsim.Page_table.translate_page t 2L = None)

let test_mmu_fault () =
  let mmu = Memsim.Mmu.create () in
  let read vaddr len = Memsim.Mmu.transfer mmu vaddr (Bytes.create len) ~len ~store:false in
  (match read 0x5000L 4 with
  | exception Memsim.Fault.Fault (Memsim.Fault.Segfault a) ->
    Alcotest.(check int64) "fault addr" 0x5000L a
  | _ -> Alcotest.fail "expected segfault");
  match read 0x1234560012345600L 8 with
  | exception Memsim.Fault.Fault (Memsim.Fault.Non_canonical _) -> ()
  | _ -> Alcotest.fail "expected non-canonical"

let test_mmu_rw () =
  let mmu = Memsim.Mmu.create () in
  ignore (Memsim.Mmu.map_fresh mmu 5L);
  Memsim.Mmu.write_u64 mmu 0x5010L 0xDEADBEEFCAFEBABEL;
  Alcotest.(check int64) "read back" 0xDEADBEEFCAFEBABEL (Memsim.Mmu.read_u64 mmu 0x5010L)

let test_mmu_aliasing_shares_data () =
  let mmu = Memsim.Mmu.create () in
  let pfn = Memsim.Phys_mem.allocate (Memsim.Mmu.phys mmu) in
  Memsim.Mmu.map_aliased mmu ~vpn:5L ~pfn;
  Memsim.Mmu.map_aliased mmu ~vpn:9L ~pfn;
  Memsim.Mmu.write_u64 mmu 0x5040L 77L;
  Alcotest.(check int64) "aliased read" 77L (Memsim.Mmu.read_u64 mmu 0x9040L)

let test_cache_basic () =
  let c = Memsim.Cache.l1_default () in
  Alcotest.(check int) "first access misses" 1 (Memsim.Cache.access c ~addr:0x1000 ~size:8);
  Alcotest.(check int) "second access hits" 0 (Memsim.Cache.access c ~addr:0x1000 ~size:8);
  Alcotest.(check int) "same line hits" 0 (Memsim.Cache.access c ~addr:0x1030 ~size:8);
  Alcotest.(check int) "next line misses" 1 (Memsim.Cache.access c ~addr:0x1040 ~size:8)

let test_cache_split_access () =
  let c = Memsim.Cache.l1_default () in
  Alcotest.(check bool) "crossing" true (Memsim.Cache.crosses_line c ~addr:0x103C ~size:8);
  Alcotest.(check bool) "not crossing" false (Memsim.Cache.crosses_line c ~addr:0x1038 ~size:8);
  Alcotest.(check int) "split costs 2 lines" 2 (Memsim.Cache.access c ~addr:0x103C ~size:8)

let test_cache_capacity () =
  let c = Memsim.Cache.create ~size_bytes:512 ~ways:2 ~line_bytes:64 in
  (* 4 sets x 2 ways; touching 3 lines of the same set evicts *)
  let addr set way = (way * 4 * 64) + (set * 64) in
  ignore (Memsim.Cache.access c ~addr:(addr 0 0) ~size:1);
  ignore (Memsim.Cache.access c ~addr:(addr 0 1) ~size:1);
  Alcotest.(check int) "way0 still resident" 0 (Memsim.Cache.access c ~addr:(addr 0 0) ~size:1);
  ignore (Memsim.Cache.access c ~addr:(addr 0 2) ~size:1);
  (* LRU: way1 evicted *)
  Alcotest.(check int) "LRU victim" 1 (Memsim.Cache.access c ~addr:(addr 0 1) ~size:1)

let test_cache_single_page_fits () =
  (* the BHive invariant: one 4 KiB frame fits entirely in a 32 KiB
     8-way L1 (64 lines in 64 distinct sets) *)
  let c = Memsim.Cache.l1_default () in
  for k = 0 to 63 do
    ignore (Memsim.Cache.access c ~addr:(k * 64) ~size:8)
  done;
  Memsim.Cache.reset_stats c;
  for k = 0 to 63 do
    ignore (Memsim.Cache.access c ~addr:(k * 64) ~size:8)
  done;
  Alcotest.(check int) "no misses warm" 0 (Memsim.Cache.misses c)

let prop_cache_miss_bound =
  QCheck.Test.make ~name:"access misses at most 2 lines" ~count:300
    QCheck.(pair (int_bound 100000) (int_range 1 32))
    (fun (addr, size) ->
      let c = Memsim.Cache.l1_default () in
      let m = Memsim.Cache.access c ~addr:addr ~size in
      m >= 1 && m <= 2)

(* Cache operations for the model check: an access of [size] bytes at
   [addr], an access to a line by index, or a flush. *)
type cache_op = Access of int * int | Line of int | Flush

let print_cache_op = function
  | Access (addr, size) -> Printf.sprintf "access 0x%x+%d" addr size
  | Line l -> Printf.sprintf "line %d" l
  | Flush -> "flush"

(* True LRU as a list of lines per set, most recent first: a hit moves
   its line to the front, a miss pushes the line and drops the last one
   of a full set. *)
module Lru_model = struct
  type t = {
    sets : int;
    ways : int;
    line_bytes : int;
    lines : int list array;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~sets ~ways ~line_bytes =
    { sets; ways; line_bytes; lines = Array.make sets []; hits = 0; misses = 0 }

  let access_line t line =
    let set = line mod t.sets in
    let l = t.lines.(set) in
    let hit = List.mem line l in
    let rest = List.filter (( <> ) line) l in
    t.lines.(set) <- List.filteri (fun i _ -> i < t.ways) (line :: rest);
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    hit

  let access t ~addr ~size =
    let first = addr / t.line_bytes and last = (addr + max 1 size - 1) / t.line_bytes in
    let hits = List.init (last - first + 1) (fun k -> access_line t (first + k)) in
    List.length (List.filter not hits)

  let flush t =
    Array.fill t.lines 0 t.sets [];
    t.hits <- 0;
    t.misses <- 0
end

(* [Cache] against the list model, on small caches of 1 to 8 sets, 1 to
   4 ways (3 included) and 16- to 64-byte lines, over lines from a pool
   twice the cache's capacity: every result and the hit and miss counts
   after every operation. Accesses repeat the previous one's line half
   the time (hits of the cache's recent-slot probe), cross lines when
   they run past a line's end, and interleave with flushes. *)
let prop_cache_matches_lru_model =
  let gen =
    QCheck.Gen.(
      let* sets = oneofl [ 1; 2; 4; 8 ] in
      let* ways = int_range 1 4 in
      let* line_bytes = oneofl [ 16; 32; 64 ] in
      let pool = 2 * sets * ways in
      let op prev =
        frequency
          [
            ( 4,
              let* line = int_bound (pool - 1) and* offset = int_bound (line_bytes - 1) in
              let+ size = int_range 1 16 in
              Access ((line * line_bytes) + offset, size) );
            ( 4,
              let* offset = int_bound (line_bytes - 1) in
              let+ size = int_range 1 8 in
              Access ((prev / line_bytes * line_bytes) + offset, size) );
            (2, map (fun l -> Line l) (int_bound (pool - 1)));
            (1, return Flush);
          ]
      in
      let rec ops n prev acc =
        if n = 0 then return (List.rev acc)
        else
          let* o = op prev in
          let prev =
            match o with Access (a, _) -> a | Line l -> l * line_bytes | Flush -> prev
          in
          ops (n - 1) prev (o :: acc)
      in
      let* n = int_range 1 120 in
      let+ ops = ops n 0 [] in
      (sets, ways, line_bytes, ops))
  in
  QCheck.Test.make ~name:"cache == true-LRU list model" ~count:300
    (QCheck.make
       ~print:(fun (sets, ways, line_bytes, ops) ->
         Printf.sprintf "%d sets, %d ways, %d-byte lines: %s" sets ways line_bytes
           (String.concat "; " (List.map print_cache_op ops)))
       gen)
    (fun (sets, ways, line_bytes, ops) ->
      let c =
        Memsim.Cache.create ~size_bytes:(sets * ways * line_bytes) ~ways ~line_bytes
      in
      let m = Lru_model.create ~sets ~ways ~line_bytes in
      List.for_all
        (fun op ->
          (match op with
            | Access (addr, size) ->
              Memsim.Cache.access c ~addr ~size = Lru_model.access m ~addr ~size
            | Line l -> Memsim.Cache.access_line c l = Lru_model.access_line m l
            | Flush ->
              Memsim.Cache.flush c;
              Lru_model.flush m;
              true)
          && Memsim.Cache.hits c = m.hits
          && Memsim.Cache.misses c = m.misses)
        ops)

(* The set count and the line size must be powers of two (lines are
   found by shift, sets by mask); the way count need not be. *)
let test_cache_geometry () =
  let refused (size_bytes, ways, line_bytes) =
    match Memsim.Cache.create ~size_bytes ~ways ~line_bytes with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let check verdict ((size, ways, line) as g) =
    Alcotest.(check bool)
      (Printf.sprintf "%d B, %d ways, %d B lines %s" size ways line
         (if verdict then "refused" else "accepted"))
      verdict (refused g)
  in
  List.iter (check true)
    [
      (3 * 8 * 64, 8, 64);
      (6 * 2 * 64, 2, 64);
      (4 * 8 * 48, 8, 48);
      (1000, 8, 64);
      (0, 8, 64);
    ];
  List.iter (check false)
    [ (32 * 1024, 8, 64); (256 * 1024, 8, 64); (4 * 3 * 64, 3, 64); (16, 1, 16) ]

(* What a read or write of [size] bytes at [vaddr] made: one access,
   named by its first byte's physical address, or none for size 0. *)
type access = { vaddr : int64; paddr : int64; size : int; is_store : bool }

(* [Mmu.transfer] as whole-buffer reads and writes. *)
module Paged = struct
  let access mmu vaddr buf size ~is_store =
    if size = 0 then []
    else
      let paddr = Memsim.Mmu.transfer mmu vaddr buf ~len:size ~store:is_store in
      [ { vaddr; paddr = Int64.of_int paddr; size; is_store } ]

  let read_bytes mmu vaddr size =
    let out = Bytes.create size in
    let accesses = access mmu vaddr out size ~is_store:false in
    (out, accesses)

  let write_bytes mmu vaddr data =
    access mmu vaddr data (Bytes.length data) ~is_store:true
end

(* The byte-at-a-time MMU that the page-granular one must match:
   translate every byte on its own and fault at the first byte that
   cannot be translated. *)
module Bytewise = struct
  open Memsim

  let translate mmu va =
    if not (Fault.is_valid_address va) then raise (Fault.Fault (Fault.Non_canonical va));
    match Page_table.translate_page (Mmu.table mmu) (Fault.page_of_address va) with
    | Some pfn -> Int64.add (Fault.address_of_page pfn) (Int64.of_int (Fault.offset_in_page va))
    | None -> raise (Fault.Fault (Fault.Segfault va))

  (* Visit each byte's physical address in order; the access record
     names the first one. *)
  let each_byte mmu vaddr size ~is_store f : access list =
    let first = ref None in
    for k = 0 to size - 1 do
      let pa = translate mmu (Int64.add vaddr (Int64.of_int k)) in
      if !first = None then first := Some pa;
      f k (Fault.page_of_address pa) (Fault.offset_in_page pa)
    done;
    match !first with Some paddr -> [ { vaddr; paddr; size; is_store } ] | None -> []

  let read_bytes mmu vaddr size =
    let out = Bytes.create size in
    let accesses =
      each_byte mmu vaddr size ~is_store:false (fun k pfn off ->
          Bytes.set out k (Char.chr (Phys_mem.read_byte (Mmu.phys mmu) pfn off)))
    in
    (out, accesses)

  let write_bytes mmu vaddr data =
    each_byte mmu vaddr (Bytes.length data) ~is_store:true (fun k pfn off ->
        Phys_mem.write_byte (Mmu.phys mmu) pfn off (Char.code (Bytes.get data k)))
end

(* A window of four consecutive virtual pages from [base], each
   unmapped (0), aliased onto one shared frame (1) or given a fresh
   frame (2). Frames hold distinct fill patterns. Returns the MMU and
   its frames. *)
let mmu_window ~base kinds =
  let mmu = Memsim.Mmu.create () in
  let phys = Memsim.Mmu.phys mmu in
  let shared = Memsim.Phys_mem.allocate phys in
  Memsim.Phys_mem.fill_const phys shared 0x12345600l;
  let frames = ref [ shared ] in
  List.iteri
    (fun i kind ->
      let vpn = Int64.add base (Int64.of_int i) in
      match kind with
      | 1 -> Memsim.Mmu.map_aliased mmu ~vpn ~pfn:shared
      | 2 ->
        let pfn = Memsim.Mmu.map_fresh mmu vpn in
        Memsim.Phys_mem.fill_const phys pfn (Int32.of_int (0x01020304 * (i + 1)));
        frames := pfn :: !frames
      | _ -> ())
    kinds;
  (mmu, !frames)

let mmu_case_gen =
  QCheck.Gen.(
    (* windows across the zero page, in the middle of user space, and
       across the top of the canonical range, so some pages are
       non-canonical whether mapped or not *)
    let* base = oneofl [ 0L; 0x12344L; 0x7FFFFFFFDL ] in
    let* kinds = list_repeat 4 (int_bound 2) in
    let* page = int_bound 3 in
    (* most accesses start within 32 bytes of a page end, so they
       straddle the edge *)
    let* off = frequency [ (3, map (fun d -> 4096 - d) (int_range 1 32)); (1, int_bound 4095) ] in
    let* size = int_bound 32 in
    let* store = bool in
    let+ fill = char in
    (base, kinds, page, off, size, store, fill))

let print_mmu_case (base, kinds, page, off, size, store, fill) =
  Printf.sprintf "base=0x%Lx kinds=[%s] page=%d off=%d size=%d %s fill=%C" base
    (String.concat ";" (List.map string_of_int kinds))
    page off size
    (if store then "write" else "read")
    fill

(* Page-granular transfers against the byte-by-byte
   reference: the same bytes and access records, the same fault, and
   the same frame contents afterwards — a write that faults part-way
   leaves the bytes before the faulting page written. *)
let prop_mmu_matches_bytewise =
  QCheck.Test.make ~name:"page-granular mmu == byte-by-byte" ~count:2000
    (QCheck.make ~print:print_mmu_case mmu_case_gen)
    (fun ((base, kinds, page, off, size, store, fill) as case) ->
      let run read write =
        let mmu, frames = mmu_window ~base kinds in
        let vaddr =
          Int64.add (Memsim.Fault.address_of_page (Int64.add base (Int64.of_int page)))
            (Int64.of_int off)
        in
        let data = Bytes.init size (fun i -> Char.chr ((Char.code fill + (7 * i)) land 0xFF)) in
        let result =
          match
            if store then (None, write mmu vaddr data)
            else
              let data, accesses = read mmu vaddr size in
              (Some data, accesses)
          with
          | r -> Ok r
          | exception Memsim.Fault.Fault f -> Error f
        in
        let contents =
          List.map (fun pfn -> Bytes.to_string (Memsim.Phys_mem.frame (Memsim.Mmu.phys mmu) pfn)) frames
        in
        (result, contents)
      in
      run Paged.read_bytes Paged.write_bytes
      = run Bytewise.read_bytes Bytewise.write_bytes
      || QCheck.Test.fail_reportf "differs on %s" (print_mmu_case case))

let suite =
  [
    Alcotest.test_case "valid addresses" `Quick test_valid_addresses;
    Alcotest.test_case "page arithmetic" `Quick test_page_arith;
    Alcotest.test_case "phys fill" `Quick test_phys_fill;
    Alcotest.test_case "page table aliasing" `Quick test_page_table_aliasing;
    Alcotest.test_case "mmu faults" `Quick test_mmu_fault;
    Alcotest.test_case "mmu read/write" `Quick test_mmu_rw;
    Alcotest.test_case "aliasing shares data" `Quick test_mmu_aliasing_shares_data;
    Alcotest.test_case "cache basic" `Quick test_cache_basic;
    Alcotest.test_case "cache split access" `Quick test_cache_split_access;
    Alcotest.test_case "cache capacity/LRU" `Quick test_cache_capacity;
    Alcotest.test_case "single page fits L1" `Quick test_cache_single_page_fits;
    QCheck_alcotest.to_alcotest prop_cache_miss_bound;
    QCheck_alcotest.to_alcotest prop_cache_matches_lru_model;
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    QCheck_alcotest.to_alcotest prop_mmu_matches_bytewise;
  ]
