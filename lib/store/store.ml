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
  mutable oc : out_channel option;
  mutable ic : in_channel option;
  mutable read_fd : Unix.file_descr option;
      (* lock-free pread descriptor for [get]'s warm path. Deliberately
         NOT closed by [close_channels]: a reader may be mid-pread on
         it without holding the shard lock, and closing would let the
         OS recycle the fd number under that read. Ordinary appends and
         torn-tail truncations happen in place on the same inode, so
         the descriptor stays valid and a short read tells the reader
         the file shrank. Whenever the segment inode IS replaced or
         removed — gc's rename-over-tmp, a rescan after a sibling
         process compacted the shared store, ensure_oc recreating a
         removed segment — [reanchor_locked] must run under the locks:
         it repoints this fd number at the new inode with dup2, so
         concurrent readers switch inodes atomically and the fd number
         is never recycled under them. Readers additionally verify the
         whole record frame (key, gen, checksum) before trusting a
         payload, so a read that races an inode swap degrades to the
         locked resync path, never to wrong bytes. *)
  mutable seg_id : int * int;
      (* (st_dev, st_ino) of the segment inode the in-memory index and
         [read_fd] describe; [no_seg_id] when the segment is absent.
         [resync] compares it against the file on disk to catch a
         sibling process swapping the inode (gc) even when the sizes
         coincide. *)
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
       if klen = 0 || klen > max_key_len || glen > max_key_len
          || plen > max_payload_len
       then raise Exit;
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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

(* ------------------------------------------------------------------ *)
(* pread                                                               *)
(* ------------------------------------------------------------------ *)

external pread_unsafe : Unix.file_descr -> Bytes.t -> int -> int -> int -> int
  = "bhive_store_pread"

(* Read exactly [len] bytes at absolute file offset [off]; [false] on
   EOF, short file or any I/O error — the caller falls back to the
   locked resync path, which reports real errors with full fidelity. *)
let pread_exact fd b ~pos ~len ~off =
  let rec go pos remaining off =
    remaining = 0
    ||
    match pread_unsafe fd b pos remaining off with
    | n when n <= 0 -> false
    | n -> go (pos + n) (remaining - n) (off + n)
  in
  go pos len off

let ensure_read_fd sh =
  match sh.read_fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.openfile sh.path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    sh.read_fd <- Some fd;
    fd

let no_seg_id = (-1, -1)

(* Re-anchor the shard to whatever inode currently lives at [sh.path]:
   record its identity for [resync]'s replacement check and, if a
   lock-free read descriptor is already out, atomically repoint that
   fd NUMBER at the new inode with dup2 — concurrent readers holding
   the number switch inodes without the OS ever recycling it under a
   mid-flight pread. When the segment is absent the descriptor is
   parked on /dev/null, so stale reads short-read and fall back to the
   locked path. Must be called, under the shard Mutex and file lock,
   whenever the segment inode may have been replaced or removed. *)
let reanchor_locked sh =
  match Unix.openfile sh.path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | nfd -> (
    let st = Unix.fstat nfd in
    sh.seg_id <- (st.Unix.st_dev, st.Unix.st_ino);
    match sh.read_fd with
    | Some fd ->
      Unix.dup2 ~cloexec:true nfd fd;
      Unix.close nfd
    | None -> Unix.close nfd)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
    sh.seg_id <- no_seg_id;
    match sh.read_fd with
    | Some fd ->
      let nfd = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
      Unix.dup2 ~cloexec:true nfd fd;
      Unix.close nfd
    | None -> ())

(* Lock-free verified read of the whole record frame behind [e]:
   framing, key, gen and checksum must all match the index entry
   before the payload is trusted. [None] means the segment changed
   identity under the reader (shrank, or an inode swap raced the
   probe) — the caller retries under the full locks, where [resync]
   restores index/descriptor coherence. *)
let pread_record_verified fd ~key ~gen e =
  let klen = String.length key and glen = String.length gen in
  let roff = e.e_off - 12 - klen - glen in
  let rlen = 12 + klen + glen + e.e_len + 8 in
  let b = Bytes.create rlen in
  let ok =
    (try pread_exact fd b ~pos:0 ~len:rlen ~off:roff
     with Unix.Unix_error _ -> false)
    && Codec.get_u32 b 0 = record_magic
    && Codec.get_u16 b 4 = klen
    && Codec.get_u16 b 6 = glen
    && Codec.get_u32 b 8 = e.e_len
    && Bytes.sub_string b 12 klen = key
    && Bytes.sub_string b (12 + klen) glen = gen
    && Codec.fnv1a64_bytes ~off:0 ~len:(rlen - 8) b = Codec.get_i64 b (rlen - 8)
  in
  if ok then Some (Bytes.sub_string b (12 + klen + glen) e.e_len) else None

(* ------------------------------------------------------------------ *)
(* Shard open / rescan                                                 *)
(* ------------------------------------------------------------------ *)

let close_channels sh =
  (match sh.oc with
  | Some oc ->
    close_out_noerr oc;
    sh.oc <- None
  | None -> ());
  match sh.ic with
  | Some ic ->
    close_in_noerr ic;
    sh.ic <- None
  | None -> ()

(* Rebuild the shard's index from the segment bytes on disk,
   truncating any torn tail. This is how a shard opens. Must hold both
   the shard Mutex and the shard file lock (the truncate races with
   another process's in-flight append otherwise). *)
let rescan_locked sh =
  close_channels sh;
  Hashtbl.reset sh.index;
  sh.records <- 0;
  sh.superseded <- 0;
  sh.stale <- false;
  sh.size <- 0;
  if Sys.file_exists sh.path then begin
    let b = read_file sh.path in
    let len = Bytes.length b in
    let result, torn =
      scan_image b ~len ~emit:(fun ~key ~gen ~payload_off ~payload_len ->
          sh.records <- sh.records + 1;
          if Hashtbl.mem sh.index key then sh.superseded <- sh.superseded + 1;
          Hashtbl.replace sh.index key
            { e_gen = gen; e_off = payload_off; e_len = payload_len })
    in
    sh.torn <- sh.torn + torn;
    match result with
    | `Stale nonempty ->
      (* foreign or pre-format segment: serve nothing from it and
         rewrite it wholesale on first append *)
      sh.stale <- nonempty
    | `Good good ->
      if good < len then Unix.truncate sh.path good;
      sh.size <- good
  end;
  (* the rescan may have been triggered by a sibling process swapping
     the segment inode (gc): repoint the read descriptor at whatever
     the index now describes *)
  reanchor_locked sh

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
      oc = None;
      ic = None;
      read_fd = None;
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
            close_channels sh;
            (match sh.read_fd with
            | Some fd ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              sh.read_fd <- None
            | None -> ());
            try Unix.close sh.lockf_fd with Unix.Unix_error _ -> ()))
      t.shards
  end

let ensure_ic sh =
  match sh.ic with
  | Some ic -> ic
  | None ->
    let ic = open_in_bin sh.path in
    sh.ic <- Some ic;
    ic

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
    if replaced || sh.size = 0 || sh.stale || real < sh.size then begin
      (* segment appeared, was rewritten, shrank, or is a different
         inode (a sibling process compacted it) under us: the
         incremental path has nothing to anchor to — rescan it all *)
      close_channels sh;
      rescan_locked sh
    end
    else begin
      let delta_len = real - sh.size in
      let b = Bytes.create delta_len in
      let ic = ensure_ic sh in
      seek_in ic sh.size;
      really_input ic b 0 delta_len;
      let base = sh.size in
      let good, torn =
        scan_records b ~start:0 ~len:delta_len
          ~emit:(fun ~key ~gen ~payload_off ~payload_len ->
            sh.records <- sh.records + 1;
            if Hashtbl.mem sh.index key then
              sh.superseded <- sh.superseded + 1;
            Hashtbl.replace sh.index key
              { e_gen = gen; e_off = base + payload_off; e_len = payload_len })
      in
      if torn then begin
        sh.torn <- sh.torn + 1;
        Unix.truncate sh.path (base + good)
      end;
      sh.size <- base + good
    end

(* Must hold the shard Mutex and the shard file lock, after [resync].
   Opens the append channel, writing (or rewriting, for stale/foreign
   segments) the header first. The fresh decision is made against the
   resynced size, so a segment another process already initialised is
   appended to, never truncated. *)
let ensure_oc sh =
  match sh.oc with
  | Some oc -> oc
  | None ->
    let fresh = sh.stale || sh.size = 0 in
    let oc =
      if fresh then begin
        (* Open_append even on the fresh path: this channel is cached
           across puts, and between two of our appends another process
           may grow the file. A non-append channel would keep writing
           at its own stale offset and silently overwrite the foreign
           records; O_APPEND makes every flush land at the real EOF
           (we hold the file lock, so EOF equals the resynced size). *)
        let oc =
          open_out_gen
            [ Open_wronly; Open_creat; Open_trunc; Open_append; Open_binary ]
            0o644 sh.path
        in
        let h = header () in
        output_string oc h;
        flush oc;
        sh.size <- String.length h;
        sh.stale <- false;
        sh.records <- 0;
        sh.superseded <- 0;
        Hashtbl.reset sh.index;
        (* O_CREAT may just have made a brand-new inode (the previous
           segment was removed by a sibling's gc): re-anchor the read
           descriptor and recorded identity to it *)
        reanchor_locked sh;
        oc
      end
      else
        open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 sh.path
    in
    sh.oc <- Some oc;
    oc

type lookup = Hit of string | Stale | Miss

let get t ~key ~gen =
  let sh = shard_of t key in
  (* the shard lock covers only the index probe; the payload read is a
     lock-free pread, so any number of domains read one shard
     concurrently *)
  let probe =
    with_lock sh.lock (fun () ->
        match Hashtbl.find_opt sh.index key with
        | None -> `Miss
        | Some e when e.e_gen <> gen -> `Stale
        | Some e -> `Read (ensure_read_fd sh, e))
  in
  match probe with
  | `Miss -> Miss
  | `Stale -> Stale
  | `Read (fd, e) -> (
    match pread_record_verified fd ~key ~gen e with
    | Some payload -> Hit payload
    | None ->
      (* the segment changed under the lock-free read (a sibling
         process truncated a torn tail or swapped the inode by
         compacting): resynchronise under the full locks — [resync]
         re-anchors the read descriptor if the inode was replaced —
         and answer from the fresh, verified index *)
      with_lock sh.lock (fun () ->
          with_file_lock sh (fun () ->
              resync sh;
              match Hashtbl.find_opt sh.index key with
              | None -> Miss
              | Some e when e.e_gen <> gen -> Stale
              | Some e -> (
                match pread_record_verified (ensure_read_fd sh) ~key ~gen e with
                | Some payload -> Hit payload
                | None -> Miss))))

let put t ~key ~gen payload =
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
            | prev ->
              let oc = ensure_oc sh in
              let rec_ = encode_record ~key ~gen payload in
              let record_off = sh.size in
              output_string oc rec_;
              flush oc;
              let payload_off =
                record_off + 12 + String.length key + String.length gen
              in
              Hashtbl.replace sh.index key
                {
                  e_gen = gen;
                  e_off = payload_off;
                  e_len = String.length payload;
                };
              sh.size <- record_off + String.length rec_;
              sh.records <- sh.records + 1;
              if prev <> None then sh.superseded <- sh.superseded + 1;
              true))

let live_entries_sorted sh =
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) sh.index []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let read_payload sh e =
  let ic = ensure_ic sh in
  seek_in ic e.e_off;
  let b = Bytes.create e.e_len in
  really_input ic b 0 e.e_len;
  Bytes.unsafe_to_string b

let fold t ~init ~f =
  (* entries are gathered under the shard locks, then globally
     key-sorted so export order is independent of shard layout *)
  let all =
    Array.to_list t.shards
    |> List.concat_map (fun sh ->
           with_lock sh.lock (fun () ->
               List.map
                 (fun (key, e) -> (key, e.e_gen, read_payload sh e))
                 (live_entries_sorted sh)))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
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
              else if Sys.file_exists sh.path then begin
                (match sh.oc with Some oc -> flush oc | None -> ());
                let b = read_file sh.path in
                let result, bad =
                  scan_image b ~len:(Bytes.length b)
                    ~emit:(fun ~key:_ ~gen:_ ~payload_off:_ ~payload_len:_ ->
                      incr records)
                in
                corrupt := !corrupt + bad;
                match result with
                | `Stale nonempty -> if nonempty then incr stale
                | `Good _ -> ()
              end)))
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

let gc t =
  let live = ref 0 and dropped = ref 0 in
  let before = ref 0 and after = ref 0 in
  Array.iter
    (fun sh ->
      with_lock sh.lock (fun () ->
          with_file_lock sh (fun () ->
          resync sh;
          before := !before + sh.size;
          dropped := !dropped + (sh.records - Hashtbl.length sh.index);
          let entries =
            List.map
              (fun (key, e) -> (key, e.e_gen, read_payload sh e))
              (live_entries_sorted sh)
          in
          close_channels sh;
          if entries = [] then begin
            if Sys.file_exists sh.path then Sys.remove sh.path;
            Hashtbl.reset sh.index;
            sh.size <- 0
          end
          else begin
            let tmp = sh.path ^ ".gc" in
            let oc =
              open_out_gen
                [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
                0o644 tmp
            in
            let h = header () in
            output_string oc h;
            let pos = ref (String.length h) in
            Hashtbl.reset sh.index;
            List.iter
              (fun (key, gen, payload) ->
                let rec_ = encode_record ~key ~gen payload in
                output_string oc rec_;
                Hashtbl.replace sh.index key
                  {
                    e_gen = gen;
                    e_off = !pos + 12 + String.length key + String.length gen;
                    e_len = String.length payload;
                  };
                pos := !pos + String.length rec_)
              entries;
            close_out oc;
            Sys.rename tmp sh.path;
            sh.size <- !pos
          end;
          (* the rename (or remove) replaced the segment inode: any
             outstanding lock-free read descriptor still points at the
             unlinked one — repoint it at the rewrite so the rebuilt
             index and the bytes readers see stay coherent *)
          reanchor_locked sh;
          sh.records <- Hashtbl.length sh.index;
          sh.superseded <- 0;
          sh.torn <- 0;
          sh.stale <- false;
          live := !live + Hashtbl.length sh.index;
          after := !after + sh.size)))
    t.shards;
  {
    g_live = !live;
    g_dropped = !dropped;
    g_bytes_before = !before;
    g_bytes_after = !after;
  }
