(** Simulated MMU: translates virtual addresses through the page table,
    raises faults for unmapped or non-canonical accesses, and performs the
    actual data movement against physical memory.

    Cache behaviour is deliberately {e not} modelled here — the pipeline
    simulator replays the recorded physical access trace against its own
    cache models, exactly as the real machine overlaps architectural
    execution and cache timing. *)

type t = {
  phys : Phys_mem.t;
  table : Page_table.t;
}

type access = {
  vaddr : int64;
  paddr : int64;
  size : int;
  is_store : bool;
}

let create () = { phys = Phys_mem.create (); table = Page_table.create () }

let phys t = t.phys
let table t = t.table

(* Physical page backing [vaddr]; raises [Fault.Fault] when unmapped.
   Every byte of a page gets the same verdict, because the mappable
   range is page-aligned at both ends. *)
let translate_page t vaddr =
  if not (Fault.is_valid_address vaddr) then
    raise (Fault.Fault (Fault.Non_canonical vaddr));
  match Page_table.translate_page t.table (Fault.page_of_address vaddr) with
  | Some pfn -> pfn
  | None -> raise (Fault.Fault (Fault.Segfault vaddr))

(* Move [Bytes.length buf] bytes between [buf] and the frames backing
   [vaddr], one translation and one blit per page, in address order: a
   fault raised at a page boundary leaves the earlier pages' bytes
   moved, and names the first byte of the faulting page — the first
   faulting byte. Returns the first byte's physical address. *)
let transfer t vaddr buf ~store =
  let size = Bytes.length buf in
  let paddr = ref 0L and k = ref 0 in
  while !k < size do
    let va = Int64.add vaddr (Int64.of_int !k) in
    let pfn = translate_page t va and off = Fault.offset_in_page va in
    let n = min (size - !k) (Fault.page_size - off) in
    let frame = Phys_mem.frame t.phys pfn in
    if store then Bytes.blit buf !k frame off n else Bytes.blit frame off buf !k n;
    if !k = 0 then paddr := Int64.add (Fault.address_of_page pfn) (Int64.of_int off);
    k := !k + n
  done;
  !paddr

let read_bytes t vaddr size : bytes * access list =
  let out = Bytes.create size in
  if size = 0 then (out, [])
  else
    let paddr = transfer t vaddr out ~store:false in
    (out, [ { vaddr; paddr; size; is_store = false } ])

let write_bytes t vaddr (data : bytes) : access list =
  let size = Bytes.length data in
  if size = 0 then []
  else
    let paddr = transfer t vaddr data ~store:true in
    [ { vaddr; paddr; size; is_store = true } ]

let read_u64 t vaddr =
  let b, _ = read_bytes t vaddr 8 in
  Bytes.get_int64_le b 0

let write_u64 t vaddr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  ignore (write_bytes t vaddr b)

(* Map virtual page [vpn] to a dedicated fresh frame (conventional mmap). *)
let map_fresh t vpn =
  let pfn = Phys_mem.allocate t.phys in
  Page_table.map t.table ~vpn ~pfn;
  pfn

(* Map virtual page [vpn] onto an existing frame (BHive aliasing). *)
let map_aliased t ~vpn ~pfn = Page_table.map t.table ~vpn ~pfn

let unmap_all t = Page_table.unmap_all t.table
