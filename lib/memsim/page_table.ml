(** Per-process virtual→physical page mapping.

    Supports both conventional mappings (each virtual page gets its own
    frame) and BHive's trick of aliasing many virtual pages onto one
    physical frame. *)

(* Page numbers are native ints: a page number is an address shifted
   right by 12, so it fits. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n land max_int
end)

type t = { entries : int Pages.t }

let create () = { entries = Pages.create 64 }

(* The frame backing virtual page [vpn], or -1 when unmapped. *)
let frame_number t vpn =
  match Pages.find t.entries vpn with pfn -> pfn | exception Not_found -> -1

let translate_page t vpn =
  let pfn = frame_number t (Int64.to_int vpn) in
  if pfn < 0 then None else Some (Int64.of_int pfn)

let map t ~vpn ~pfn = Pages.replace t.entries (Int64.to_int vpn) (Int64.to_int pfn)

let unmap t vpn = Pages.remove t.entries (Int64.to_int vpn)

let unmap_all t = Pages.reset t.entries

let is_mapped t vpn = Pages.mem t.entries (Int64.to_int vpn)

let count t = Pages.length t.entries

(* Number of distinct physical frames currently mapped; equals 1 when the
   BHive single-physical-page aliasing is in effect. *)
let distinct_frames t =
  let seen = Hashtbl.create 8 in
  Pages.iter (fun _ pfn -> Hashtbl.replace seen pfn ()) t.entries;
  Hashtbl.length seen
