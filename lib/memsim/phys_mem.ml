(** Physical memory: 4 KiB frames addressed by physical page number.
    Frames are numbered from [first_pfn] up, in allocation order, so
    frame [pfn] is [frames.(pfn - first_pfn)]. *)

let first_pfn = 0x100

type t = {
  mutable frames : bytes array;
  mutable next_free : int;  (** simple bump allocator for fresh frames *)
}

let create () = { frames = [||]; next_free = first_pfn }

let allocate t =
  let pfn = t.next_free in
  let k = pfn - first_pfn in
  if k = Array.length t.frames then begin
    let frames = Array.make (Int.max 4 (2 * k)) Bytes.empty in
    Array.blit t.frames 0 frames 0 k;
    t.frames <- frames
  end;
  t.frames.(k) <- Bytes.make Fault.page_size '\000';
  t.next_free <- pfn + 1;
  Int64.of_int pfn

let mem_int t pfn = pfn >= first_pfn && pfn < t.next_free

(* The frame numbered [pfn], found without allocating. *)
let frame_int t pfn =
  if mem_int t pfn then t.frames.(pfn - first_pfn)
  else
    (* Touching an unallocated frame is an internal logic error, not a
       simulated fault: the MMU only hands out allocated frames. *)
    invalid_arg (Printf.sprintf "Phys_mem.frame: unallocated pfn 0x%x" pfn)

let frame t pfn = frame_int t (Int64.to_int pfn)
let mem t pfn = mem_int t (Int64.to_int pfn)

(* Fill a frame with a repeating 32-bit little-endian constant; BHive
   initialises its single physical page with 0x12345600 so that loaded
   values are themselves plausible, mappable pointers. *)
let fill_const t pfn value32 =
  let b = frame t pfn in
  for i = 0 to (Fault.page_size / 4) - 1 do
    Bytes.set_int32_le b (i * 4) value32
  done

let read_byte t pfn offset = Char.code (Bytes.get (frame t pfn) offset)
let write_byte t pfn offset v = Bytes.set (frame t pfn) offset (Char.chr (v land 0xFF))

let clear t =
  t.frames <- [||];
  t.next_free <- first_pfn
