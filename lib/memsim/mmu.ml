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

let create () = { phys = Phys_mem.create (); table = Page_table.create () }

let phys t = t.phys
let table t = t.table

(* Frame number of the physical page backing [vaddr]; raises
   [Fault.Fault] when unmapped. Every byte of a page gets the same
   verdict, because the mappable range is page-aligned at both ends. *)
let translate_page t vaddr =
  if not (Fault.is_valid_address vaddr) then
    raise (Fault.Fault (Fault.Non_canonical vaddr));
  let vpn = Int64.to_int (Int64.shift_right_logical vaddr Fault.page_bits) in
  let pfn = Page_table.frame_number t.table vpn in
  if pfn < 0 then raise (Fault.Fault (Fault.Segfault vaddr));
  pfn

(* Move [len] bytes between [buf] and the frames backing [vaddr], one
   translation and one blit per page, in address order: a fault raised
   at a page boundary leaves the earlier pages' bytes moved, and names
   the first byte of the faulting page — the first faulting byte.
   Returns the first byte's physical address, a native int: physical
   addresses stay far below 2^62. *)
let transfer t vaddr buf ~len ~store =
  let paddr = ref 0 and k = ref 0 in
  while !k < len do
    let va = Int64.add vaddr (Int64.of_int !k) in
    let pfn = translate_page t va and off = Fault.offset_in_page va in
    let n = Int.min (len - !k) (Fault.page_size - off) in
    let frame = Phys_mem.frame_int t.phys pfn in
    if store then Bytes.blit buf !k frame off n else Bytes.blit frame off buf !k n;
    if !k = 0 then paddr := (pfn lsl Fault.page_bits) + off;
    k := !k + n
  done;
  !paddr

let read_u64 t vaddr =
  let b = Bytes.create 8 in
  ignore (transfer t vaddr b ~len:8 ~store:false);
  Bytes.get_int64_le b 0

let write_u64 t vaddr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  ignore (transfer t vaddr b ~len:8 ~store:true)

(* Map virtual page [vpn] to a dedicated fresh frame (conventional mmap). *)
let map_fresh t vpn =
  let pfn = Phys_mem.allocate t.phys in
  Page_table.map t.table ~vpn ~pfn;
  pfn

(* Map virtual page [vpn] onto an existing frame (BHive aliasing). *)
let map_aliased t ~vpn ~pfn = Page_table.map t.table ~vpn ~pfn

let unmap_all t = Page_table.unmap_all t.table
