(* See store.mli. *)

module Sha256 = Sha256
module Codec = Codec
module Jsonl = Jsonl
module Eintr = Eintr

let shard_count = 16
let segment_magic = "BHIVESTORE1\n"

(* Payloads are Marshal blobs, which are not stable across OCaml
   releases or word sizes, nor across changes to the marshalled type.
   The writer stamps its format into the segment header: the OCaml
   release, the word size and [payload_version], bumped whenever the
   engine's outcome type changes shape. A segment from an incompatible
   writer is treated as empty (stale) and rewritten on first append,
   so an upgrade degrades to a cold store instead of decoding a
   payload as the wrong type. *)
let payload_version = 3

let format_tag =
  Printf.sprintf "marshal/%s/%d/v%d" Sys.ocaml_version Sys.word_size
    payload_version

let record_magic = 0xB17EC0DE
let max_key_len = 4096
let max_payload_len = 1 lsl 26

type entry = { e_gen : string; e_off : int; e_len : int }

type shard = {
  path : string;
  index : (string, entry) Hashtbl.t;
  lock : Mutex.t; (* intra-process exclusion (domains/threads) *)
  lockf_fd : Unix.file_descr;
      (* cross-process exclusion: fcntl-style advisory lock on a
         sibling .lock file. fcntl locks are per-process (a second
         lock by another thread of the same process would succeed and
         its unlock would release ours), so the Mutex above is always
         taken first and the file lock only ever held by one thread of
         this process at a time. *)
  mutable size : int; (* valid byte length of the segment *)
  mutable fd : Unix.file_descr option;
      (* the shard's one descriptor, read and appended through, open on
         the segment inode the index was built from ([None] when the
         segment is absent). [reopen_locked] alone opens and replaces
         it, under both locks: in [rescan_locked], on [append_fd]'s
         fresh path and after [gc]'s rename. Every read takes the shard
         Mutex, because the descriptor's file offset is shared. A
         sibling process's gc swaps the inode on disk but not this one,
         so the index and the bytes read through [fd] describe one
         inode until the next rescan. *)
  mutable seg_id : int * int;
      (* (st_dev, st_ino) of the inode [fd] is open on; [no_seg_id]
         when the segment is absent. [resync] compares it against the
         file on disk to catch a sibling process swapping the inode
         (gc) even when the sizes coincide. *)
  mutable records : int; (* records on disk, including superseded *)
  mutable superseded : int;
  mutable torn : int; (* torn-tail truncation events at open/resync *)
  mutable stale : bool;
  mutable open_seconds : float; (* wall time of the open *)
}

type t = { t_dir : string; shards : shard array; mutable closed : bool }

let dir t = t.t_dir

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Whole-file advisory lock on the shard's .lock sibling. Caller must
   already hold the shard Mutex (see the lockf_fd field comment). *)
let with_file_lock sh f =
  Eintr.lockf sh.lockf_fd Unix.F_LOCK 0;
  Fun.protect ~finally:(fun () -> Unix.lockf sh.lockf_fd Unix.F_ULOCK 0) f

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let header () =
  let buf = Buffer.create 32 in
  Buffer.add_string buf segment_magic;
  Codec.str buf format_tag;
  Buffer.contents buf

let encode_record ~key ~gen payload =
  let buf =
    Buffer.create
      (24 + String.length key + String.length gen + String.length payload)
  in
  Codec.u32 buf record_magic;
  Codec.u16 buf (String.length key);
  Codec.u16 buf (String.length gen);
  Codec.u32 buf (String.length payload);
  Buffer.add_string buf key;
  Buffer.add_string buf gen;
  Buffer.add_string buf payload;
  let sum = Codec.fnv1a64 (Buffer.contents buf) in
  Codec.i64 buf sum;
  Buffer.contents buf

(* The frame bounds the scan accepts. [put] refuses a record outside
   them: the scan would take it for a torn tail at the next open and
   truncate it, together with every later record of its shard. *)
let in_bounds ~klen ~glen ~plen =
  klen > 0 && klen <= max_key_len && glen <= max_key_len
  && plen <= max_payload_len

(* Scan one decoded segment image. Returns the byte offset of the end
   of the last intact record ("good" prefix) plus what was indexed; a
   record that fails frame bounds or checksum ends the scan — the log
   is append-only, so everything past the first bad byte is a torn
   tail from an interrupted writer. [emit] sees records in log order,
   later generations superseding earlier ones at the caller. *)
let scan_records b ~start ~len ~emit =
  let pos = ref start in
  let torn = ref false in
  (try
     while !pos < len do
       let off = !pos in
       if off + 12 > len then raise Exit;
       if Codec.get_u32 b off <> record_magic then raise Exit;
       let klen = Codec.get_u16 b (off + 4) in
       let glen = Codec.get_u16 b (off + 6) in
       let plen = Codec.get_u32 b (off + 8) in
       if not (in_bounds ~klen ~glen ~plen) then raise Exit;
       let body_len = 12 + klen + glen + plen in
       if off + body_len + 8 > len then raise Exit;
       let sum = Codec.fnv1a64_bytes ~off ~len:body_len b in
       if sum <> Codec.get_i64 b (off + body_len) then raise Exit;
       let key = Bytes.sub_string b (off + 12) klen in
       let gen = Bytes.sub_string b (off + 12 + klen) glen in
       emit ~key ~gen ~payload_off:(off + 12 + klen + glen) ~payload_len:plen;
       pos := off + body_len + 8
     done
   with Exit -> torn := true);
  (!pos, !torn)

let scan_image b ~len ~emit =
  let header_ok, data_start, stale =
    let hm = String.length segment_magic in
    if len < hm + 4 then (false, 0, len > 0)
    else if Bytes.sub_string b 0 hm <> segment_magic then (false, 0, true)
    else
      let tag_len = Codec.get_u32 b hm in
      if tag_len > 256 || len < hm + 4 + tag_len then (false, 0, true)
      else if Bytes.sub_string b (hm + 4) tag_len <> format_tag then
        (false, 0, true)
      else (true, hm + 4 + tag_len, false)
  in
  if not header_ok then (`Stale stale, 0)
  else begin
    let good, torn = scan_records b ~start:data_start ~len ~emit in
    (`Good good, if torn then 1 else 0)
  end

(* ------------------------------------------------------------------ *)
(* The shard descriptor                                                *)
(* ------------------------------------------------------------------ *)

(* Read [len] bytes at absolute offset [off] through the shard's
   descriptor; [None] when it is absent or the file ends first. Under
   the shard Mutex: the descriptor's file offset is shared. *)
let read_at sh ~off ~len =
  match sh.fd with
  | None -> None
  | Some fd ->
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let b = Bytes.create len in
    if Eintr.really_read fd b 0 len then Some b else None

(* The whole segment image behind the descriptor. Under both
   locks, where no writer moves the end of the file. *)
let read_image sh =
  match sh.fd with
  | None -> None
  | Some fd -> (
    let len = (Unix.fstat fd).Unix.st_size in
    match read_at sh ~off:0 ~len with
    | Some b -> Some b
    | None ->
      failwith
        (Printf.sprintf "store segment %s shrank under its lock" sh.path))

(* The payload of the record behind index entry [e], once its frame
   (magic, lengths, key, gen) matches the entry and its checksum
   holds; [None] otherwise. Every payload the store hands out passes
   through here, so a record altered on disk after it was indexed is
   never served, exported or rewritten. *)
let read_record sh ~key e =
  let klen = String.length key and glen = String.length e.e_gen in
  let rlen = 12 + klen + glen + e.e_len + 8 in
  match read_at sh ~off:(e.e_off - 12 - klen - glen) ~len:rlen with
  | Some b
    when Codec.get_u32 b 0 = record_magic
         && Codec.get_u16 b 4 = klen
         && Codec.get_u16 b 6 = glen
         && Codec.get_u32 b 8 = e.e_len
         && Bytes.sub_string b 12 klen = key
         && Bytes.sub_string b (12 + klen) glen = e.e_gen
         && Codec.fnv1a64_bytes ~off:0 ~len:(rlen - 8) b
            = Codec.get_i64 b (rlen - 8) ->
    Some (Bytes.sub_string b (12 + klen + glen) e.e_len)
  | _ -> None

let no_seg_id = (-1, -1)

(* Point the descriptor at the inode now at [sh.path] (creating it if
   [create]), or at nothing when the segment is absent, closing the one
   it replaces, and record that inode's identity for [resync]'s
   replacement check. Closing is safe because every reader holds the
   shard Mutex. It is opened [O_APPEND], so an append lands at the real
   end of the file whatever offset the last read left, and after
   whatever another process appended. Must be called under the shard
   Mutex and file lock, wherever the segment inode may have been
   replaced, created or removed. *)
let reopen_locked ?(create = false) sh =
  Option.iter Unix.close sh.fd;
  sh.fd <- None;
  sh.seg_id <- no_seg_id;
  let flags = [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CLOEXEC ] in
  let flags = if create then Unix.O_CREAT :: flags else flags in
  match Unix.openfile sh.path flags 0o644 with
  | fd ->
    let st = Unix.fstat fd in
    sh.fd <- Some fd;
    sh.seg_id <- (st.Unix.st_dev, st.Unix.st_ino)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Shard open / rescan                                                 *)
(* ------------------------------------------------------------------ *)

let index_record sh ~base ~key ~gen ~payload_off ~payload_len =
  sh.records <- sh.records + 1;
  if Hashtbl.mem sh.index key then sh.superseded <- sh.superseded + 1;
  Hashtbl.replace sh.index key
    { e_gen = gen; e_off = base + payload_off; e_len = payload_len }

(* Rebuild the shard's index from the segment on disk, read through a
   freshly opened descriptor, truncating any torn tail. This is how a
   shard opens, and how it follows a sibling process's gc. Must hold
   both the shard Mutex and the shard file lock (the truncate races
   with another process's in-flight append otherwise). *)
let rescan_locked sh =
  Hashtbl.reset sh.index;
  sh.records <- 0;
  sh.superseded <- 0;
  sh.stale <- false;
  sh.size <- 0;
  reopen_locked sh;
  match read_image sh with
  | None -> ()
  | Some b -> (
    let len = Bytes.length b in
    let result, torn = scan_image b ~len ~emit:(index_record sh ~base:0) in
    sh.torn <- sh.torn + torn;
    match result with
    | `Stale nonempty ->
      (* foreign or pre-format segment: serve nothing from it and
         rewrite it wholesale on first append *)
      sh.stale <- nonempty
    | `Good good ->
      if good < len then Unix.truncate sh.path good;
      sh.size <- good)

let lock_path path = path ^ ".lock"

let open_shard path =
  let lockf_fd =
    Unix.openfile (lock_path path)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  let sh =
    {
      path;
      index = Hashtbl.create 64;
      lock = Mutex.create ();
      lockf_fd;
      size = 0;
      fd = None;
      seg_id = no_seg_id;
      records = 0;
      superseded = 0;
      torn = 0;
      stale = false;
      open_seconds = 0.0;
    }
  in
  let t0 = Unix.gettimeofday () in
  with_file_lock sh (fun () -> rescan_locked sh);
  sh.open_seconds <- Unix.gettimeofday () -. t0;
  sh

let shard_path root i = Filename.concat root (Printf.sprintf "seg-%02d.bhs" i)

let open_ root =
  if Sys.file_exists root && not (Sys.is_directory root) then
    failwith (Printf.sprintf "store path %S exists and is not a directory" root);
  mkdir_p root;
  {
    t_dir = root;
    shards = Array.init shard_count (fun i -> open_shard (shard_path root i));
    closed = false;
  }

let shard_of t key =
  let h = Codec.fnv1a64 key in
  t.shards.(Int64.to_int (Int64.logand h (Int64.of_int (shard_count - 1))))

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun sh ->
        with_lock sh.lock (fun () ->
            List.iter
              (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
              (sh.lockf_fd :: Option.to_list sh.fd);
            sh.fd <- None))
      t.shards
  end

(* Fold in whatever other processes appended to the segment since we
   last looked, and truncate away the torn tail a killed foreign writer
   may have left, so our own append lands on a record boundary. Must
   hold both the shard Mutex and the shard file lock. Writers append
   whole records while holding the file lock, so the un-indexed suffix
   always starts on a record boundary; only a crash mid-append leaves
   a torn (checksum-failing) tail. *)
let resync sh =
  let real, replaced =
    match Unix.stat sh.path with
    | st ->
      (st.Unix.st_size, (st.Unix.st_dev, st.Unix.st_ino) <> sh.seg_id)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      (0, sh.seg_id <> no_seg_id)
  in
  if real <> sh.size || replaced then
    (* the delta is read through the descriptor: not replaced, it is
       open on the inode at [sh.path] *)
    let delta =
      if replaced || sh.size = 0 || sh.stale || real < sh.size then None
      else read_at sh ~off:sh.size ~len:(real - sh.size)
    in
    match delta with
    | None ->
      (* segment appeared, was rewritten, shrank, or is a different
         inode (a sibling process compacted it) under us: the
         incremental path has nothing to anchor to — rescan it all *)
      rescan_locked sh
    | Some b ->
      let base = sh.size in
      let good, torn =
        scan_records b ~start:0 ~len:(Bytes.length b)
          ~emit:(index_record sh ~base)
      in
      if torn then begin
        sh.torn <- sh.torn + 1;
        Unix.truncate sh.path (base + good)
      end;
      sh.size <- base + good

(* Must hold the shard Mutex and the shard file lock, after [resync].
   The descriptor to append through, once the segment has a current
   header: a stale/foreign segment is rewritten and an absent one
   created. The fresh decision is made against the resynced size, so a
   segment another process already initialised is appended to, never
   truncated. *)
let append_fd sh =
  match sh.fd with
  | Some fd when not (sh.stale || sh.size = 0) -> fd
  | _ ->
    (* O_CREAT may make a brand-new inode (the previous segment was
       removed by a sibling's gc): read it from now on *)
    reopen_locked ~create:true sh;
    let fd = Option.get sh.fd in
    Unix.ftruncate fd 0;
    let h = header () in
    Eintr.really_write_substring fd h;
    sh.size <- String.length h;
    sh.stale <- false;
    sh.records <- 0;
    sh.superseded <- 0;
    Hashtbl.reset sh.index;
    fd

type lookup = Hit of string | Stale | Miss

let get t ~key ~gen =
  let sh = shard_of t key in
  with_lock sh.lock (fun () ->
      match Hashtbl.find_opt sh.index key with
      | None -> Miss
      | Some e when e.e_gen <> gen -> Stale
      | Some e -> (
        match read_record sh ~key e with Some p -> Hit p | None -> Miss))

let put t ~key ~gen payload =
  let klen = String.length key and glen = String.length gen in
  let plen = String.length payload in
  if not (in_bounds ~klen ~glen ~plen) then
    invalid_arg
      (Printf.sprintf
         "Store.put: a %d-byte key, %d-byte gen and %d-byte payload lie \
          outside a record's bounds"
         klen glen plen);
  let sh = shard_of t key in
  with_lock sh.lock (fun () ->
      match Hashtbl.find_opt sh.index key with
      | Some e when e.e_gen = gen -> false
      | _ ->
        with_file_lock sh (fun () ->
            resync sh;
            (* re-check: another process may have appended exactly this
               record while we waited for the lock *)
            match Hashtbl.find_opt sh.index key with
            | Some e when e.e_gen = gen -> false
            | _ ->
              let fd = append_fd sh in
              let rec_ = encode_record ~key ~gen payload in
              let base = sh.size in
              Eintr.really_write_substring fd rec_;
              index_record sh ~base ~key ~gen ~payload_off:(12 + klen + glen)
                ~payload_len:plen;
              sh.size <- base + String.length rec_;
              true))

(* The shard's live records, key-sorted, each read back and checked;
   a record that fails the check is left out. Under the shard Mutex. *)
let live_records sh =
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) sh.index []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.filter_map (fun (key, e) ->
         Option.map (fun p -> (key, e.e_gen, p)) (read_record sh ~key e))

let fold t ~init ~f =
  (* records are gathered under the shard locks, then globally
     key-sorted so export order is independent of shard layout *)
  let all =
    Array.to_list t.shards
    |> List.concat_map (fun sh -> with_lock sh.lock (fun () -> live_records sh))
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  List.fold_left (fun acc (key, gen, payload) -> f acc ~key ~gen payload) init
    all

type gen_stats = { g_gen : string; g_live : int; g_bytes : int }

(* Live records grouped by generation fingerprint, heaviest first. With
   block-sensitive generations (descriptor refinement) this is the
   per-candidate invalidation footprint: how many records each
   generation keeps warm and what they weigh. Payload bytes come from
   the index entries — no payload reads. *)
let gen_stats t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun sh ->
      with_lock sh.lock (fun () ->
          Hashtbl.iter
            (fun _ e ->
              let live, bytes =
                Option.value (Hashtbl.find_opt tbl e.e_gen) ~default:(0, 0)
              in
              Hashtbl.replace tbl e.e_gen (live + 1, bytes + e.e_len))
            sh.index))
    t.shards;
  Hashtbl.fold
    (fun gen (live, bytes) acc ->
      { g_gen = gen; g_live = live; g_bytes = bytes } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.g_live a.g_live with
         | 0 -> compare a.g_gen b.g_gen
         | c -> c)

type shard_stats = {
  ss_shard : int;
  ss_live : int;
  ss_records : int;
  ss_bytes : int;
  ss_open_seconds : float;
}

type stats = {
  s_dir : string;
  s_shards : int;
  s_live : int;
  s_records : int;
  s_superseded : int;
  s_torn : int;
  s_stale_segments : int;
  s_bytes : int;
  s_open_seconds : float;
  s_per_shard : shard_stats list;
}

let stats t =
  let acc = ref (0, 0, 0, 0, 0, 0) in
  let open_s = ref 0.0 in
  let per_shard = ref [] in
  Array.iteri
    (fun i sh ->
      with_lock sh.lock (fun () ->
          let live, recs, sup, torn, stale, bytes = !acc in
          acc :=
            ( live + Hashtbl.length sh.index,
              recs + sh.records,
              sup + sh.superseded,
              torn + sh.torn,
              (stale + if sh.stale then 1 else 0),
              bytes + sh.size );
          open_s := !open_s +. sh.open_seconds;
          per_shard :=
            {
              ss_shard = i;
              ss_live = Hashtbl.length sh.index;
              ss_records = sh.records;
              ss_bytes = sh.size;
              ss_open_seconds = sh.open_seconds;
            }
            :: !per_shard))
    t.shards;
  let live, recs, sup, torn, stale, bytes = !acc in
  {
    s_dir = t.t_dir;
    s_shards = shard_count;
    s_live = live;
    s_records = recs;
    s_superseded = sup;
    s_torn = torn;
    s_stale_segments = stale;
    s_bytes = bytes;
    s_open_seconds = !open_s;
    s_per_shard = List.rev !per_shard;
  }

type verify_report = {
  v_live : int;
  v_records : int;
  v_corrupt : int;
  v_torn : int;
  v_stale_segments : int;
}

let verify t =
  let live = ref 0 and records = ref 0 and corrupt = ref 0 in
  let torn = ref 0 and stale = ref 0 in
  Array.iter
    (fun sh ->
      with_lock sh.lock (fun () ->
          with_file_lock sh (fun () ->
              (* the file lock keeps another process's in-flight append
                 from reading as a torn tail; resync folds its finished
                 appends in so v_live reflects the shared segment *)
              resync sh;
              live := !live + Hashtbl.length sh.index;
              torn := !torn + sh.torn;
              if sh.stale then incr stale
              else
                match read_image sh with
                | None -> ()
                | Some b -> (
                  let result, bad =
                    scan_image b ~len:(Bytes.length b)
                      ~emit:(fun ~key:_ ~gen:_ ~payload_off:_ ~payload_len:_ ->
                        incr records)
                  in
                  corrupt := !corrupt + bad;
                  match result with
                  | `Stale nonempty -> if nonempty then incr stale
                  | `Good _ -> ()))))
    t.shards;
  {
    v_live = !live;
    v_records = !records;
    v_corrupt = !corrupt;
    v_torn = !torn;
    v_stale_segments = !stale;
  }

type gc_report = {
  g_live : int;
  g_dropped : int;
  g_bytes_before : int;
  g_bytes_after : int;
}

(* Write the compacted segment aside and rename it over the shard's
   ([records] empty: remove the segment). Returns the new segment's size
   and index entries; the shard itself is left untouched, so a rewrite
   that raises leaves the handle consistent with the old segment, which
   is still on disk. *)
let compact sh records =
  if records = [] then begin
    if Sys.file_exists sh.path then Sys.remove sh.path;
    (0, [])
  end
  else begin
    let tmp = sh.path ^ ".gc" in
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
        tmp
    in
    let written =
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let h = header () in
          output_string oc h;
          let w =
            List.fold_left
              (fun (pos, entries) (key, gen, payload) ->
                let rec_ = encode_record ~key ~gen payload in
                output_string oc rec_;
                let payload_off = 12 + String.length key + String.length gen in
                ( pos + String.length rec_,
                  (key, gen, pos + payload_off, String.length payload)
                  :: entries ))
              (String.length h, []) records
          in
          close_out oc;
          w)
    in
    Sys.rename tmp sh.path;
    written
  end

let gc t =
  let live = ref 0 and dropped = ref 0 in
  let before = ref 0 and after = ref 0 in
  Array.iter
    (fun sh ->
      with_lock sh.lock (fun () ->
          with_file_lock sh (fun () ->
              resync sh;
              before := !before + sh.size;
              let records = live_records sh in
              dropped := !dropped + sh.records - List.length records;
              let size, entries = compact sh records in
              (* committed: the rename (or remove) replaced the segment
                 inode; the shard now describes the new one *)
              Hashtbl.reset sh.index;
              sh.records <- 0;
              sh.superseded <- 0;
              sh.torn <- 0;
              sh.stale <- false;
              List.iter
                (fun (key, gen, off, len) ->
                  index_record sh ~base:0 ~key ~gen ~payload_off:off
                    ~payload_len:len)
                entries;
              sh.size <- size;
              reopen_locked sh;
              live := !live + Hashtbl.length sh.index;
              after := !after + sh.size)))
    t.shards;
  {
    g_live = !live;
    g_dropped = !dropped;
    g_bytes_before = !before;
    g_bytes_after = !after;
  }
