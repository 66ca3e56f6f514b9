(** A memo of page mappings, shared by the profiles of one engine; see
    mapping_memo.mli. Packed logs live in per-generation arenas outside
    the OCaml heap: a heap copy of every log would stay live for two
    batches and raise the process's peak RSS by far more than the bytes
    it holds. An arena is a list of fixed-size chunks rather than one
    array that doubles, so growing it copies nothing, and a generation
    rotated out leaves its chunks to the next one. *)

type mapped = {
  steps : Xsem.Step_log.t;
  faults : int;
  distinct_frames : int;
  fits_l1 : bool;
}

type entry =
  | Mapped of {
      chunk : Xsem.Step_log.buf;
      pos : int;
      len : int;
      faults : int;
      distinct_frames : int;
      fits_l1 : bool;
    }  (** the final-run log is [len] packed bytes at [pos] in [chunk] *)
  | Failed of Mapping.failure

type generation = {
  entries : (string * int, entry) Hashtbl.t;  (** keyed by (key, unroll) *)
  seeds : (string, int64) Hashtbl.t;  (** block noise seeds, keyed by key *)
  mutable chunks : Xsem.Step_log.buf list;
      (** in use, the one being filled first *)
  mutable used : int;  (** bytes written to the chunk being filled *)
}

type t = {
  lock : Mutex.t;  (** guards the generations and [spare] *)
  mutable current : generation;
  mutable previous : generation;
  mutable spare : Xsem.Step_log.buf list;  (** chunks of rotated-out generations *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let generation () =
  { entries = Hashtbl.create 64; seeds = Hashtbl.create 64; chunks = []; used = 0 }

let create () =
  {
    lock = Mutex.create ();
    current = generation ();
    previous = generation ();
    spare = [];
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let chunk_bytes = 256 * 1024

(* A chunk and a position in it with room for [n] bytes in the current
   generation, which the caller then writes. A log longer than a chunk
   gets an array of its own. The caller holds the lock. *)
let reserve t n =
  let g = t.current in
  match g.chunks with
  | c :: _ when Bigarray.Array1.dim c - g.used >= n ->
    let pos = g.used in
    g.used <- pos + n;
    (c, pos)
  | _ ->
    let c =
      match t.spare with
      | c :: rest when n <= chunk_bytes ->
        t.spare <- rest;
        c
      | _ ->
        Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout
          (Int.max chunk_bytes n)
    in
    g.chunks <- c :: g.chunks;
    g.used <- n;
    (c, 0)

(* Per domain, the buffer a log is packed into before the lock is
   taken to copy it into the arena. *)
let packed = Domain.DLS.new_key (fun () -> Buffer.create 4096)

(* Record a mapping result, its log packed into [b], in the current
   generation; the caller holds the lock. *)
let add_result t k b = function
  | Error f -> Hashtbl.replace t.current.entries k (Failed f)
  | Ok (m : mapped) ->
    let len = Buffer.length b in
    let chunk, pos = reserve t len in
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set chunk (pos + i) (Char.code (Buffer.nth b i))
    done;
    Hashtbl.replace t.current.entries k
      (Mapped
         {
           chunk;
           pos;
           len;
           faults = m.faults;
           distinct_frames = m.distinct_frames;
           fits_l1 = m.fits_l1;
         })

(* Copy a previous-generation entry into the current generation; the
   caller holds the lock. *)
let copy_forward t k = function
  | Failed _ as e ->
    Hashtbl.replace t.current.entries k e;
    e
  | Mapped m ->
    let chunk, pos = reserve t m.len in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub m.chunk m.pos m.len)
      (Bigarray.Array1.sub chunk pos m.len);
    let e = Mapped { m with chunk; pos } in
    Hashtbl.replace t.current.entries k e;
    e

(* The entry for [k], carried forward if the previous generation holds
   it. *)
let find t k =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.current.entries k with
      | Some _ as e -> e
      | None -> Option.map (copy_forward t k) (Hashtbl.find_opt t.previous.entries k))

let run ~log env block ~unroll =
  Result.map
    (fun (s : Mapping.success) ->
      {
        steps = s.steps;
        faults = s.faults;
        distinct_frames = s.distinct_frames;
        fits_l1 = Pipeline.Machine.fits_l1 s.steps;
      })
    (Mapping.run ~log env block ~unroll)

let map t ~key ~log env block ~unroll =
  let k = (key, unroll) in
  (* An entry's bytes are read outside the lock: nothing overwrites
     them before [rotate] hands their chunk over for reuse. *)
  match find t k with
  | Some (Failed f) ->
    Atomic.incr t.hits;
    Error f
  | Some (Mapped m) ->
    Atomic.incr t.hits;
    Xsem.Step_log.unpack m.chunk ~pos:m.pos (Array.of_list block) ~into:log;
    Ok
      {
        steps = log;
        faults = m.faults;
        distinct_frames = m.distinct_frames;
        fits_l1 = m.fits_l1;
      }
  | None ->
    Atomic.incr t.misses;
    let r = run ~log env block ~unroll in
    let b = Domain.DLS.get packed in
    Buffer.clear b;
    Result.iter (fun (m : mapped) -> Xsem.Step_log.pack m.steps b) r;
    Mutex.protect t.lock (fun () ->
        if not (Hashtbl.mem t.current.entries k) then add_result t k b r);
    r

let seed t ~key compute =
  let find () =
    match Hashtbl.find_opt t.current.seeds key with
    | Some _ as s -> s
    | None ->
      let s = Hashtbl.find_opt t.previous.seeds key in
      Option.iter (Hashtbl.replace t.current.seeds key) s;
      s
  in
  match Mutex.protect t.lock find with
  | Some s -> s
  | None ->
    let s = compute () in
    Mutex.protect t.lock (fun () -> Hashtbl.replace t.current.seeds key s);
    s

let rotate t =
  Mutex.protect t.lock (fun () ->
      let recycled = t.previous in
      (* only chunks of the standard size are reused *)
      t.spare <-
        List.filter (fun c -> Bigarray.Array1.dim c = chunk_bytes) recycled.chunks
        @ t.spare;
      Hashtbl.clear recycled.entries;
      Hashtbl.clear recycled.seeds;
      recycled.chunks <- [];
      recycled.used <- 0;
      t.previous <- t.current;
      t.current <- recycled)

type stats = { hits : int; misses : int }

let stats (t : t) = { hits = Atomic.get t.hits; misses = Atomic.get t.misses }
