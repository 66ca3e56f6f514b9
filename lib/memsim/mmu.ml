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
  (* A one-entry translation cache: virtual page [last_vpn] (-1 when
     empty) is frame [last_frame], whose first byte is at physical
     address [last_base]. Mapping a page empties it; nothing else
     writes the page table. *)
  mutable last_vpn : int;
  mutable last_base : int;
  mutable last_frame : Bytes.t;
}

let create () =
  {
    phys = Phys_mem.create ();
    table = Page_table.create ();
    last_vpn = -1;
    last_base = 0;
    last_frame = Bytes.empty;
  }

let phys t = t.phys
let table t = t.table

(* Point the cache at the page holding [va], a native address in the
   mappable range; raises [Fault.Fault] when that page is unmapped,
   naming [va]. *)
let[@inline] translate t va =
  let vpn = va lsr Fault.page_bits in
  if vpn <> t.last_vpn then begin
    let pfn = Page_table.frame_number t.table vpn in
    if pfn < 0 then raise (Fault.Fault (Fault.Segfault (Int64.of_int va)));
    t.last_frame <- Phys_mem.frame_int t.phys pfn;
    t.last_base <- pfn lsl Fault.page_bits;
    t.last_vpn <- vpn
  end

(* Integer-sized moves copy in place; others go through [Bytes.blit]. *)
let[@inline] copy src spos dst dpos len =
  match len with
  | 8 -> Bytes.set_int64_le dst dpos (Bytes.get_int64_le src spos)
  | 4 -> Bytes.set_int32_le dst dpos (Bytes.get_int32_le src spos)
  | 2 -> Bytes.set_uint16_le dst dpos (Bytes.get_uint16_le src spos)
  | 1 -> Bytes.set_uint8 dst dpos (Bytes.get_uint8 src spos)
  | _ -> Bytes.blit src spos dst dpos len

let[@inline] move t off buf ~pos ~len ~store =
  if store then copy buf pos t.last_frame off len else copy t.last_frame off buf pos len

(* Move [len] bytes between [buf] at [pos] and the frames backing
   [va], a native address that the caller has checked against the
   mappable range. Pages go in address order: a fault at a page
   boundary leaves the earlier pages' bytes moved, and names the first
   byte of the faulting page, the first faulting byte. Returns the
   first byte's physical address: physical addresses stay far below
   2^62. *)
let transfer_int t va buf ~pos ~len ~store =
  translate t va;
  let off = va land (Fault.page_size - 1) in
  let paddr = t.last_base + off in
  let n = Int.min len (Fault.page_size - off) in
  move t off buf ~pos ~len:n ~store;
  let k = ref n in
  while !k < len do
    let next = va + !k in
    if next >= Fault.end_of_user then
      raise (Fault.Fault (Fault.Non_canonical (Int64.of_int next)));
    translate t next;
    let n = Int.min (len - !k) Fault.page_size in
    move t 0 buf ~pos:(pos + !k) ~len:n ~store;
    k := !k + n
  done;
  paddr

(* [transfer_int] at an [int64] address, checked here. An empty
   transfer touches nothing. *)
let transfer t vaddr buf ~len ~store =
  if len = 0 then 0
  else begin
    if not (Fault.is_valid_address vaddr) then
      raise (Fault.Fault (Fault.Non_canonical vaddr));
    transfer_int t (Int64.to_int vaddr) buf ~pos:0 ~len ~store
  end

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
  t.last_vpn <- -1;
  pfn

(* Map virtual page [vpn] onto an existing frame (BHive aliasing). *)
let map_aliased t ~vpn ~pfn =
  Page_table.map t.table ~vpn ~pfn;
  t.last_vpn <- -1
