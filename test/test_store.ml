(* Tests for the persistent content-addressed measurement store and
   its engine integration: the SHA-256 and codec primitives, segment
   crash-safety (truncation at every byte offset of the final record),
   compaction, golden fingerprint pins, the warm-run zero-profiler-call
   guarantee, generation-keyed invalidation, and the determinism matrix
   {cold, warm, post-gc} x workers {1, 2, 4}. *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* --- SHA-256 ---------------------------------------------------------- *)

let test_sha256_vectors () =
  let check what input expected =
    Alcotest.(check string) what expected (Store.Sha256.hex input)
  in
  check "empty string" ""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "two-block message"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check "million a's"
    (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  (* length straddling the padding boundary (55/56/64 bytes) *)
  List.iter
    (fun len ->
      let s = String.make len 'x' in
      Alcotest.(check string)
        (Printf.sprintf "len %d digest is stable" len)
        (Store.Sha256.hex s) (Store.Sha256.hex s);
      Alcotest.(check int)
        (Printf.sprintf "len %d digest is 32 bytes" len)
        32
        (String.length (Store.Sha256.digest s)))
    [ 55; 56; 63; 64; 65 ]

let test_codec_roundtrip () =
  let b = Buffer.create 64 in
  Store.Codec.u8 b 0xAB;
  Store.Codec.u16 b 0xBEEF;
  Store.Codec.u32 b 0xDEADBEEF;
  Store.Codec.i64 b (-1L);
  let s = Buffer.to_bytes b in
  Alcotest.(check int) "u8" 0xAB (Store.Codec.get_u8 s 0);
  Alcotest.(check int) "u16" 0xBEEF (Store.Codec.get_u16 s 1);
  Alcotest.(check int) "u32" 0xDEADBEEF (Store.Codec.get_u32 s 3);
  Alcotest.(check int64) "i64" (-1L) (Store.Codec.get_i64 s 7);
  let payload = String.init 256 Char.chr in
  let hex = Store.Codec.to_hex payload in
  Alcotest.(check string) "hex is two lowercase digits per byte"
    (String.concat "" (List.init 256 (Printf.sprintf "%02x")))
    hex;
  Alcotest.(check (option string))
    "hex round-trips arbitrary bytes" (Some payload)
    (Store.Codec.of_hex hex);
  Alcotest.(check (option string)) "odd-length hex rejected" None
    (Store.Codec.of_hex "abc");
  Alcotest.(check (option string)) "non-hex rejected" None
    (Store.Codec.of_hex "zz")

let test_fnv1a64_vectors () =
  (* classic FNV-1a 64-bit test vectors *)
  Alcotest.(check int64) "fnv1a64(\"\")" 0xCBF29CE484222325L
    (Store.Codec.fnv1a64 "");
  Alcotest.(check int64) "fnv1a64(\"a\")" 0xAF63DC4C8601EC8CL
    (Store.Codec.fnv1a64 "a");
  Alcotest.(check int64) "fnv1a64(\"foobar\")" 0x85944171F73967E8L
    (Store.Codec.fnv1a64 "foobar")

(* --- store basics ----------------------------------------------------- *)

let key_of i = Store.Sha256.hex (Printf.sprintf "key-%d" i)
let gen_a = Store.Sha256.hex "generation-a"
let gen_b = Store.Sha256.hex "generation-b"

let test_store_basics () =
  with_store_dir "bhive_store_basics" (fun dir ->
      let st = Store.open_ dir in
      Alcotest.(check bool) "fresh store misses" true
        (Store.get st ~key:(key_of 0) ~gen:gen_a = Store.Miss);
      Alcotest.(check bool) "put appends" true
        (Store.put st ~key:(key_of 0) ~gen:gen_a "payload-0");
      Alcotest.(check bool) "hit under the written generation" true
        (Store.get st ~key:(key_of 0) ~gen:gen_a = Store.Hit "payload-0");
      Alcotest.(check bool) "other generation is stale" true
        (Store.get st ~key:(key_of 0) ~gen:gen_b = Store.Stale);
      Alcotest.(check bool) "same (key, gen) put is skipped" false
        (Store.put st ~key:(key_of 0) ~gen:gen_a "payload-0");
      Alcotest.(check bool) "new generation supersedes" true
        (Store.put st ~key:(key_of 0) ~gen:gen_b "payload-0b");
      Alcotest.(check bool) "new generation now hits" true
        (Store.get st ~key:(key_of 0) ~gen:gen_b = Store.Hit "payload-0b");
      Alcotest.(check bool) "old generation now stale" true
        (Store.get st ~key:(key_of 0) ~gen:gen_a = Store.Stale);
      let s = Store.stats st in
      Alcotest.(check int) "one live record" 1 s.Store.s_live;
      Alcotest.(check int) "two records on disk" 2 s.Store.s_records;
      Alcotest.(check int) "one superseded" 1 s.Store.s_superseded;
      Store.close st;
      (* reopen: the index is rebuilt from the segments *)
      let st = Store.open_ dir in
      Alcotest.(check bool) "reopened store still hits" true
        (Store.get st ~key:(key_of 0) ~gen:gen_b = Store.Hit "payload-0b");
      let v = Store.verify st in
      Alcotest.(check int) "verify: no corruption" 0 v.Store.v_corrupt;
      Alcotest.(check int) "verify: no torn tail" 0 v.Store.v_torn;
      Store.close st)

let test_store_fold_sorted () =
  with_store_dir "bhive_store_fold" (fun dir ->
      let st = Store.open_ dir in
      (* enough keys to land in several shards *)
      for i = 0 to 63 do
        ignore
          (Store.put st ~key:(key_of i) ~gen:gen_a
             (Printf.sprintf "payload-%d" i))
      done;
      let keys =
        Store.fold st ~init:[] ~f:(fun acc ~key ~gen payload ->
            Alcotest.(check string) "generation preserved" gen_a gen;
            Alcotest.(check bool) "payload preserved" true
              (String.length payload > 0);
            key :: acc)
        |> List.rev
      in
      Alcotest.(check int) "fold visits every record" 64 (List.length keys);
      Alcotest.(check bool) "fold is key-sorted" true
        (keys = List.sort compare keys);
      Store.close st)

let test_store_binary_payload () =
  with_store_dir "bhive_store_binary" (fun dir ->
      let st = Store.open_ dir in
      let payload = String.init 4096 (fun i -> Char.chr (i land 0xFF)) in
      ignore (Store.put st ~key:(key_of 1) ~gen:gen_a payload);
      Alcotest.(check bool) "4 KiB binary payload round-trips" true
        (Store.get st ~key:(key_of 1) ~gen:gen_a = Store.Hit payload);
      Store.close st;
      let st = Store.open_ dir in
      Alcotest.(check bool) "and survives reopen" true
        (Store.get st ~key:(key_of 1) ~gen:gen_a = Store.Hit payload);
      Store.close st)

let test_store_rejects_file_path () =
  let path = Filename.temp_file "bhive_store_notdir" "" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      match Store.open_ path with
      | exception Failure msg ->
        Alcotest.(check bool) "error names the path" true
          (contains ~needle:path msg)
      | st ->
        Store.close st;
        Alcotest.fail "opening a file as a store should fail")

(* --- crash safety ----------------------------------------------------- *)

let shard_of_key key =
  Int64.to_int (Int64.logand (Store.Codec.fnv1a64 key) 15L)

let shard_file dir key =
  Filename.concat dir (Printf.sprintf "seg-%02d.bhs" (shard_of_key key))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* Truncate the last record's shard segment at every byte offset inside
   that record, reopen, and check: the torn record is dropped, every
   earlier record is still served, and the torn-tail event is counted.
   This is the recovery path a mid-append crash exercises. *)
let test_truncation_at_every_offset () =
  with_store_dir "bhive_store_torn" (fun dir ->
      (* Pick three keys that land in the same shard so the truncated
         segment holds context records before the victim. *)
      let shard0 = shard_of_key (key_of 0) in
      let same_shard =
        List.filter (fun i -> shard_of_key (key_of i) = shard0)
          (List.init 400 Fun.id)
      in
      let k1, k2, k3 =
        match same_shard with
        | a :: b :: c :: _ -> (key_of a, key_of b, key_of c)
        | _ -> Alcotest.fail "could not find three keys in one shard"
      in
      let st = Store.open_ dir in
      ignore (Store.put st ~key:k1 ~gen:gen_a "first");
      ignore (Store.put st ~key:k2 ~gen:gen_a "second");
      let seg = shard_file dir k1 in
      let before = (Unix.stat seg).Unix.st_size in
      ignore (Store.put st ~key:k3 ~gen:gen_a "third-the-victim");
      Store.close st;
      let intact = read_file seg in
      let total = String.length intact in
      Alcotest.(check bool) "the victim record appended" true (total > before);
      for cut = before to total - 1 do
        write_file seg (String.sub intact 0 cut);
        let st = Store.open_ dir in
        Alcotest.(check bool)
          (Printf.sprintf "cut@%d: earlier record 1 survives" cut)
          true
          (Store.get st ~key:k1 ~gen:gen_a = Store.Hit "first");
        Alcotest.(check bool)
          (Printf.sprintf "cut@%d: earlier record 2 survives" cut)
          true
          (Store.get st ~key:k2 ~gen:gen_a = Store.Hit "second");
        Alcotest.(check bool)
          (Printf.sprintf "cut@%d: torn record never served" cut)
          true
          (Store.get st ~key:k3 ~gen:gen_a = Store.Miss);
        let s = Store.stats st in
        Alcotest.(check int)
          (Printf.sprintf "cut@%d: only the torn record dropped" cut)
          2 s.Store.s_live;
        (* a cut exactly at the record boundary is a clean tail, any
           cut inside the record is a detected torn tail *)
        Alcotest.(check int)
          (Printf.sprintf "cut@%d: torn-tail event counted" cut)
          (if cut = before then 0 else 1)
          s.Store.s_torn;
        let v = Store.verify st in
        Alcotest.(check int)
          (Printf.sprintf "cut@%d: verify sees no corruption after repair" cut)
          0 v.Store.v_corrupt;
        Alcotest.(check int)
          (Printf.sprintf "cut@%d: verify reports the torn tail" cut)
          (if cut = before then 0 else 1)
          v.Store.v_torn;
        Store.close st;
        (* the tail was truncated away: a fresh append must work *)
        let st = Store.open_ dir in
        ignore (Store.put st ~key:k3 ~gen:gen_a "third-again");
        Alcotest.(check bool)
          (Printf.sprintf "cut@%d: store is writable after repair" cut)
          true
          (Store.get st ~key:k3 ~gen:gen_a = Store.Hit "third-again");
        Store.close st;
        write_file seg intact
      done)

let test_bitflip_detected () =
  with_store_dir "bhive_store_bitflip" (fun dir ->
      let st = Store.open_ dir in
      ignore (Store.put st ~key:(key_of 7) ~gen:gen_a "precious");
      Store.close st;
      let seg = shard_file dir (key_of 7) in
      let intact = read_file seg in
      (* flip one bit inside the final record's payload *)
      let b = Bytes.of_string intact in
      let pos = Bytes.length b - 12 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      write_file seg (Bytes.to_string b);
      let st = Store.open_ dir in
      Alcotest.(check bool) "bit-flipped record never served" true
        (Store.get st ~key:(key_of 7) ~gen:gen_a = Store.Miss);
      Alcotest.(check int) "counted as a torn tail" 1 (Store.stats st).Store.s_torn;
      Store.close st)

(* --- leftovers of older stores ----------------------------------------- *)

(* Stores written before the segment became the only on-disk format
   kept a sidecar index ([seg-NN.bhs.idx]) next to each segment. Such
   a file is ignored: a segment torn mid-append after earlier records
   serves exactly its intact prefix, whatever the sidecar holds, and
   neither open, put nor gc reads, rewrites or adds an index file. *)
let test_sidecar_torn_segment_with_index () =
  with_store_dir "bhive_idx_both" (fun dir ->
      let shard0 = shard_of_key (key_of 0) in
      let keys =
        match
          List.filter
            (fun i -> shard_of_key (key_of i) = shard0)
            (List.init 400 Fun.id)
        with
        | a :: b :: c :: _ -> [ key_of a; key_of b; key_of c ]
        | _ -> Alcotest.fail "could not find three keys in one shard"
      in
      let st = Store.open_ dir in
      List.iteri
        (fun i key ->
          ignore (Store.put st ~key ~gen:gen_a (Printf.sprintf "payload-%d" i)))
        keys;
      Store.close st;
      let seg = shard_file dir (List.hd keys) in
      let idx = seg ^ ".idx" in
      let leftover = "BHIVEIDX1\n" ^ String.make 64 '\x5a' in
      write_file idx leftover;
      (* chop the final segment record in half *)
      let intact = read_file seg in
      write_file seg (String.sub intact 0 (String.length intact - 7));
      let st = Store.open_ dir in
      List.iteri
        (fun i key ->
          if i < 2 then
            Alcotest.(check bool)
              (Printf.sprintf "torn-both: earlier key %d survives" i)
              true
              (Store.get st ~key ~gen:gen_a
              = Store.Hit (Printf.sprintf "payload-%d" i)))
        keys;
      Alcotest.(check bool) "torn-both: torn record never served" true
        (Store.get st ~key:(List.nth keys 2) ~gen:gen_a = Store.Miss);
      Alcotest.(check int) "torn-both: torn tail counted" 1
        (Store.stats st).Store.s_torn;
      Alcotest.(check int) "torn-both: verify clean" 0
        (Store.verify st).Store.v_corrupt;
      ignore (Store.put st ~key:(List.nth keys 2) ~gen:gen_a "payload-2");
      ignore (Store.gc st);
      Store.close st;
      Alcotest.(check string) "the leftover index is left as it was" leftover
        (read_file idx);
      Array.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: a segment or its lock file" f)
            true
            (Filename.check_suffix f ".bhs"
            || Filename.check_suffix f ".bhs.lock"
            || f = Filename.basename idx))
        (Sys.readdir dir))

(* --- compaction ------------------------------------------------------- *)

let test_gc_compaction () =
  with_store_dir "bhive_store_gc" (fun dir ->
      let st = Store.open_ dir in
      for i = 0 to 31 do
        ignore (Store.put st ~key:(key_of i) ~gen:gen_a (Printf.sprintf "a%d" i))
      done;
      (* supersede half of them *)
      for i = 0 to 15 do
        ignore (Store.put st ~key:(key_of i) ~gen:gen_b (Printf.sprintf "b%d" i))
      done;
      let s0 = Store.stats st in
      Alcotest.(check int) "pre-gc live" 32 s0.Store.s_live;
      Alcotest.(check int) "pre-gc superseded" 16 s0.Store.s_superseded;
      let g = Store.gc st in
      Alcotest.(check int) "gc keeps live records" 32 g.Store.g_live;
      Alcotest.(check int) "gc drops superseded" 16 g.Store.g_dropped;
      Alcotest.(check bool) "gc reclaims bytes" true
        (g.Store.g_bytes_after < g.Store.g_bytes_before);
      let s1 = Store.stats st in
      Alcotest.(check int) "post-gc superseded" 0 s1.Store.s_superseded;
      Alcotest.(check int) "post-gc records = live" s1.Store.s_live
        s1.Store.s_records;
      (* every surviving record still reads back, through the open
         handle and after a reopen *)
      let check_all st =
        for i = 0 to 15 do
          Alcotest.(check bool)
            (Printf.sprintf "key %d hits under gen b" i)
            true
            (Store.get st ~key:(key_of i) ~gen:gen_b
            = Store.Hit (Printf.sprintf "b%d" i))
        done;
        for i = 16 to 31 do
          Alcotest.(check bool)
            (Printf.sprintf "key %d hits under gen a" i)
            true
            (Store.get st ~key:(key_of i) ~gen:gen_a
            = Store.Hit (Printf.sprintf "a%d" i))
        done
      in
      check_all st;
      Store.close st;
      let st = Store.open_ dir in
      check_all st;
      Alcotest.(check int) "verify clean after gc" 0
        (Store.verify st).Store.v_corrupt;
      Store.close st)

(* Regression: gc replaces the segment inode (rename-over-tmp) while
   each shard's read descriptor is open on the OLD inode. Unless gc
   reopens that descriptor on the rewrite, every later read probes the
   rebuilt index (new offsets) but reads the unlinked old inode. *)
let test_gc_reanchors_read_fd () =
  with_store_dir "bhive_store_gc_fd" (fun dir ->
      let st = Store.open_ dir in
      for i = 0 to 199 do
        ignore (Store.put st ~key:(key_of i) ~gen:gen_a (Printf.sprintf "a%d" i))
      done;
      for i = 0 to 99 do
        ignore (Store.put st ~key:(key_of i) ~gen:gen_b (Printf.sprintf "b%d" i))
      done;
      (* warm reads BEFORE gc, through the descriptors on the
         pre-compaction inodes *)
      for i = 0 to 199 do
        let gen, p =
          if i < 100 then (gen_b, Printf.sprintf "b%d" i)
          else (gen_a, Printf.sprintf "a%d" i)
        in
        Alcotest.(check bool)
          (Printf.sprintf "pre-gc key %d" i)
          true
          (Store.get st ~key:(key_of i) ~gen = Store.Hit p)
      done;
      ignore (Store.gc st);
      for i = 0 to 199 do
        let gen, p =
          if i < 100 then (gen_b, Printf.sprintf "b%d" i)
          else (gen_a, Printf.sprintf "a%d" i)
        in
        Alcotest.(check bool)
          (Printf.sprintf "post-gc key %d reads the right payload" i)
          true
          (Store.get st ~key:(key_of i) ~gen = Store.Hit p)
      done;
      Store.close st)

(* A gc whose rewrite fails (here a directory stands where a shard's
   compacted segment is written) raises and leaves the handle
   describing the segment still on disk: every key hits, fold returns
   every record, verify counts the same live records, and a later put
   into that shard lands on a record boundary and survives a reopen. *)
let test_gc_failure_leaves_handle_whole () =
  with_store_dir "bhive_store_gc_fail" (fun dir ->
      let st = Store.open_ dir in
      for i = 0 to 63 do
        ignore (Store.put st ~key:(key_of i) ~gen:gen_a (Printf.sprintf "a%d" i))
      done;
      for i = 0 to 31 do
        ignore (Store.put st ~key:(key_of i) ~gen:gen_b (Printf.sprintf "b%d" i))
      done;
      let check_all what st =
        for i = 0 to 63 do
          let gen, p =
            if i < 32 then (gen_b, Printf.sprintf "b%d" i)
            else (gen_a, Printf.sprintf "a%d" i)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: key %d hits" what i)
            true
            (Store.get st ~key:(key_of i) ~gen = Store.Hit p)
        done
      in
      let live = (Store.verify st).Store.v_live in
      let blocked = shard_file dir (key_of 0) ^ ".gc" in
      Unix.mkdir blocked 0o755;
      (match Store.gc st with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "gc wrote its segment through a directory");
      check_all "after the failed gc" st;
      Alcotest.(check int) "fold returns every record" 64
        (Store.fold st ~init:0 ~f:(fun n ~key:_ ~gen:_ _ -> n + 1));
      let v = Store.verify st in
      Alcotest.(check int) "verify counts the same live records" live
        v.Store.v_live;
      Alcotest.(check int) "verify clean" 0 v.Store.v_corrupt;
      let fresh =
        List.init 400 (fun i -> key_of (64 + i))
        |> List.find (fun k -> shard_of_key k = shard_of_key (key_of 0))
      in
      Alcotest.(check bool) "a put into the shard lands" true
        (Store.put st ~key:fresh ~gen:gen_a "fresh");
      Store.close st;
      Unix.rmdir blocked;
      let st = Store.open_ dir in
      check_all "after a reopen" st;
      Alcotest.(check bool) "the later put survives" true
        (Store.get st ~key:fresh ~gen:gen_a = Store.Hit "fresh");
      Alcotest.(check int) "no torn tail" 0 (Store.stats st).Store.s_torn;
      Store.close st)

(* Regression: a SIBLING handle compacts the shared store (new inode on
   disk); our handle's next resync must notice the inode swap and
   rebuild its index from a descriptor reopened on the new inode, or
   reads pair new offsets with old bytes. *)
let test_sibling_gc_inode_swap () =
  with_store_dir "bhive_store_gc_sibling" (fun dir ->
      let a = Store.open_ dir in
      for i = 0 to 63 do
        ignore (Store.put a ~key:(key_of i) ~gen:gen_a (Printf.sprintf "a%d" i))
      done;
      for i = 0 to 31 do
        ignore (Store.put a ~key:(key_of i) ~gen:gen_b (Printf.sprintf "b%d" i))
      done;
      (* a reads through its descriptors on the pre-compaction inodes *)
      for i = 0 to 63 do
        let gen = if i < 32 then gen_b else gen_a in
        ignore (Store.get a ~key:(key_of i) ~gen)
      done;
      (* the "sibling process": a second handle on the same directory
         (the store's advisory file locks are per-process, so this
         sequential use is equivalent to another process compacting) *)
      let b = Store.open_ dir in
      ignore (Store.gc b);
      Store.close b;
      (* a put forces a's resync against the swapped inode *)
      Alcotest.(check bool)
        "put lands after sibling gc" true
        (Store.put a ~key:(key_of 64) ~gen:gen_a "fresh");
      for i = 0 to 64 do
        let gen, p =
          if i < 32 then (gen_b, Printf.sprintf "b%d" i)
          else if i < 64 then (gen_a, Printf.sprintf "a%d" i)
          else (gen_a, "fresh")
        in
        Alcotest.(check bool)
          (Printf.sprintf "post-sibling-gc key %d reads the right payload" i)
          true
          (Store.get a ~key:(key_of i) ~gen = Store.Hit p)
      done;
      Store.close a;
      (* a reopen sees the healed state, the put included: it landed
         on the inode now at the segment's path *)
      let c = Store.open_ dir in
      Alcotest.(check int) "verify clean after sibling gc" 0
        (Store.verify c).Store.v_corrupt;
      Alcotest.(check bool)
        "the put after the sibling's gc survives a reopen" true
        (Store.get c ~key:(key_of 64) ~gen:gen_a = Store.Hit "fresh");
      Store.close c)

(* A sibling handle's gc swaps every segment inode on disk while [a]
   still holds the index it built from the old ones, and [a] has not
   read a payload yet. [a]'s fold must
   read the inodes its index describes: both when compaction shrinks
   the segments (100 superseded records) and when it keeps their sizes
   and only reorders the records (200 keys written in descending
   order). After a put resyncs [a] onto the new inodes, the fold still
   reads every payload as written. *)
let test_fold_after_sibling_gc () =
  let fold st =
    Store.fold st ~init:[] ~f:(fun acc ~key ~gen p -> (key, gen, p) :: acc)
    |> List.rev
  in
  let case what ~keys ~superseded =
    with_store_dir "bhive_store_fold_sibling" (fun dir ->
        let a = Store.open_ dir in
        let put gen tag i =
          let payload = Printf.sprintf "%s%d" tag i in
          ignore (Store.put a ~key:(key_of i) ~gen payload)
        in
        List.iter (put gen_a "a") keys;
        List.iter (put gen_b "b") superseded;
        let want =
          List.map
            (fun i ->
              if List.mem i superseded then
                (key_of i, gen_b, Printf.sprintf "b%d" i)
              else (key_of i, gen_a, Printf.sprintf "a%d" i))
            keys
          |> List.sort compare
        in
        let records = Alcotest.(list (triple string string string)) in
        let b = Store.open_ dir in
        let g = Store.gc b in
        Store.close b;
        Alcotest.(check int) (what ^ ": the sibling dropped the superseded")
          (List.length superseded) g.Store.g_dropped;
        Alcotest.check records (what ^ ": fold after the sibling's gc") want
          (fold a);
        ignore (Store.put a ~key:(key_of 1000) ~gen:gen_a "fresh");
        Alcotest.check records (what ^ ": fold after a resync")
          (List.sort compare ((key_of 1000, gen_a, "fresh") :: want))
          (fold a);
        Store.close a)
  in
  case "superseded" ~keys:(List.init 200 Fun.id)
    ~superseded:(List.init 100 Fun.id);
  let descending =
    List.init 200 Fun.id
    |> List.sort (fun i j -> compare (key_of j) (key_of i))
  in
  case "reordered" ~keys:descending ~superseded:[]

(* Overwrite one byte of a segment in place: same inode, same size. *)
let poke_byte path pos c =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write_substring fd (String.make 1 c) 0 1))

let find_sub ~needle haystack =
  let n = String.length needle in
  let rec at i =
    if i + n > String.length haystack then Alcotest.fail (needle ^ " not found")
    else if String.sub haystack i n = needle then i
    else at (i + 1)
  in
  at 0

(* A payload byte altered on disk after the store is open, keeping the
   segment's inode and size: the index still points at the record, but
   its checksum no longer holds. It is never handed out: [get] misses,
   [fold] (and so [bhive_store export]) leaves it out, and [gc] drops
   it rather than rewrite it under a fresh checksum. The records around
   it survive. *)
let test_altered_record_never_served () =
  with_store_dir "bhive_store_altered" (fun dir ->
      let shard0 = shard_of_key (key_of 0) in
      let keys =
        List.init 400 key_of
        |> List.filter (fun k -> shard_of_key k = shard0)
        |> List.filteri (fun n _ -> n < 3)
      in
      let victim = List.nth keys 1 in
      let payload_of key =
        if key = victim then "victim-payload" else "kept:" ^ key
      in
      let st = Store.open_ dir in
      List.iter
        (fun key -> ignore (Store.put st ~key ~gen:gen_a (payload_of key)))
        keys;
      let seg = shard_file dir victim in
      let size = (Unix.stat seg).Unix.st_size in
      poke_byte seg (find_sub ~needle:"victim-payload" (read_file seg) + 3) 'X';
      Alcotest.(check int) "same size on disk" size
        (Unix.stat seg).Unix.st_size;
      Alcotest.(check bool) "get misses the altered record" true
        (Store.get st ~key:victim ~gen:gen_a = Store.Miss);
      let folded =
        Store.fold st ~init:[] ~f:(fun acc ~key ~gen:_ p -> (key, p) :: acc)
      in
      Alcotest.(check (list (pair string string)))
        "fold leaves the altered record out"
        (List.filter (fun k -> k <> victim) keys
        |> List.map (fun k -> (k, payload_of k))
        |> List.sort compare)
        (List.sort compare folded);
      let g = Store.gc st in
      Alcotest.(check int) "gc drops the altered record" 1 g.Store.g_dropped;
      Alcotest.(check int) "gc keeps the others" 2 g.Store.g_live;
      Alcotest.(check bool) "gc did not rewrite it" false
        (contains ~needle:"vicXim-payload" (read_file seg));
      Store.close st;
      let st = Store.open_ dir in
      Alcotest.(check bool) "after a reopen, get still misses" true
        (Store.get st ~key:victim ~gen:gen_a = Store.Miss);
      List.iter
        (fun key ->
          if key <> victim then
            Alcotest.(check bool) "a neighbour still hits" true
              (Store.get st ~key ~gen:gen_a = Store.Hit (payload_of key)))
        keys;
      Alcotest.(check int) "verify clean" 0 (Store.verify st).Store.v_corrupt;
      Store.close st)

(* One handle shared by four domains: two put disjoint key ranges of
   one shard and publish how far they got, while two others get and
   fold the published keys. All reads of a shard go through one
   descriptor whose file offset is shared, so a read made outside the
   shard mutex can land at another reader's offset: its check then
   fails and a published key misses. Every published key must hit with
   its own payload. *)
let test_domains_read_and_write () =
  with_store_dir "bhive_store_rw_domains" (fun dir ->
      let shard0 = shard_of_key (key_of 0) in
      let per_writer = 200 in
      let keys =
        List.init 8000 key_of
        |> List.filter (fun k -> shard_of_key k = shard0)
        |> List.filteri (fun n _ -> n < 2 * per_writer)
        |> Array.of_list
      in
      let key w i = keys.((w * per_writer) + i) in
      let payload k = String.concat "/" [ k; k; k ] in
      let st = Store.open_ dir in
      let published = Array.init 2 (fun _ -> Atomic.make 0) in
      let writers_done = Atomic.make 0 in
      let writer w () =
        for i = 0 to per_writer - 1 do
          ignore (Store.put st ~key:(key w i) ~gen:gen_a (payload (key w i)));
          Atomic.set published.(w) (i + 1)
        done;
        Atomic.incr writers_done
      in
      let failures = Atomic.make [] in
      let rec fail msg =
        let old = Atomic.get failures in
        if not (Atomic.compare_and_set failures old (msg :: old)) then fail msg
      in
      let reader () =
        let round = ref 0 in
        while Atomic.get writers_done < 2 || !round < 60 do
          let want = Atomic.get published.(0) + Atomic.get published.(1) in
          for w = 0 to 1 do
            for i = 0 to Atomic.get published.(w) - 1 do
              let k = key w i in
              match Store.get st ~key:k ~gen:gen_a with
              | Store.Hit p when p = payload k -> ()
              | Store.Hit _ -> fail "get: a wrong payload"
              | Store.Miss | Store.Stale -> fail "get: a published key missed"
            done
          done;
          let seen =
            Store.fold st ~init:0 ~f:(fun n ~key ~gen:_ p ->
                if p <> payload key then fail "fold: a wrong payload";
                n + 1)
          in
          if seen < want then fail "fold: a published key missed";
          incr round
        done
      in
      List.map Domain.spawn [ writer 0; writer 1; reader; reader ]
      |> List.iter Domain.join;
      Alcotest.(check (list string)) "every read answered right" []
        (List.sort_uniq compare (Atomic.get failures));
      let v = Store.verify st in
      Alcotest.(check int) "verify clean" 0 v.Store.v_corrupt;
      Alcotest.(check int) "every record live" (2 * per_writer) v.Store.v_live;
      Store.close st)

(* [put] refuses a record its own scan would reject at the next open
   (an empty key, a key or gen over 4,096 bytes): appended, it would
   read as a torn tail and truncate every later record of its shard. *)
let test_put_refuses_out_of_bounds () =
  with_store_dir "bhive_store_bounds" (fun dir ->
      let big = String.make 4097 'k' in
      let refused =
        [
          ("an empty key", "", gen_a);
          ("a 4,097-byte key", big, gen_a);
          ("a 4,097-byte gen", key_of 0, big);
        ]
      in
      let neighbours key =
        (* two keys in the refused record's shard *)
        List.init 2000 (fun i -> Printf.sprintf "n-%d" i)
        |> List.filter (fun k -> shard_of_key k = shard_of_key key)
        |> List.filteri (fun n _ -> n < 2)
      in
      let st = Store.open_ dir in
      let written =
        List.concat_map
          (fun (what, key, gen) ->
            match neighbours key with
            | [ before; after ] ->
              ignore (Store.put st ~key:before ~gen:gen_a ("before:" ^ before));
              (match Store.put st ~key ~gen "payload" with
              | exception Invalid_argument _ -> ()
              | _ -> Alcotest.fail (what ^ " was appended"));
              ignore (Store.put st ~key:after ~gen:gen_a ("after:" ^ after));
              [ (before, "before:" ^ before); (after, "after:" ^ after) ]
            | _ -> Alcotest.fail "no two neighbours in one shard")
          refused
      in
      Store.close st;
      let st = Store.open_ dir in
      List.iter
        (fun (key, p) ->
          Alcotest.(check bool) (key ^ " survives a reopen") true
            (Store.get st ~key ~gen:gen_a = Store.Hit p))
        written;
      Alcotest.(check int) "no torn tail" 0 (Store.stats st).Store.s_torn;
      Alcotest.(check int) "only the neighbours are live" (List.length written)
        (Store.stats st).Store.s_live;
      Store.close st)

let test_concurrent_puts () =
  with_store_dir "bhive_store_domains" (fun dir ->
      let st = Store.open_ dir in
      let n_domains = 4 and per_domain = 64 in
      let worker d () =
        for i = 0 to per_domain - 1 do
          let key = key_of ((d * per_domain) + i) in
          ignore (Store.put st ~key ~gen:gen_a (Printf.sprintf "%d:%d" d i))
        done
      in
      let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join domains;
      Alcotest.(check int) "every record landed" (n_domains * per_domain)
        (Store.stats st).Store.s_live;
      Store.close st;
      let st = Store.open_ dir in
      Alcotest.(check int) "and survives reopen" (n_domains * per_domain)
        (Store.stats st).Store.s_live;
      Alcotest.(check int) "no torn tails from concurrent appends" 0
        (Store.stats st).Store.s_torn;
      Store.close st)

(* --- golden fingerprints ---------------------------------------------- *)

(* Pinned digests: these keys address persistent measurement stores, so
   any change to the canonical encoding silently orphans every existing
   store. If one of these checks fails, the encoding changed — either
   revert it or treat it as a store-format break (bump
   Stable_key.job_version / generation_version deliberately). *)
let test_golden_fingerprints () =
  let job =
    {
      Engine.env = Harness.Environment.default;
      uarch = Uarch.All.haswell;
      block = Corpus.Paper_blocks.gzip_crc;
    }
  in
  Alcotest.(check string) "golden job fingerprint (hsw/gzip_crc)"
    "9b673043800bb9657360ca40415efdc9977629373140a7ef09d54603ac610475"
    (Engine.fingerprint job);
  Alcotest.(check string) "golden env fingerprint (default)"
    "26d524332960903c6b8b30d6fdb7cc4b90bc0e18fd5b2dfe93dffd979098244a"
    (Engine.env_fingerprint Harness.Environment.default);
  Alcotest.(check string) "golden generation (hsw)"
    "0e4f0a9588c1b077ef04db6085e3a8f2363fca89e95c071392edbc6920035e0d"
    (Engine.generation Uarch.All.haswell);
  Alcotest.(check string) "golden generation (skl)"
    "cef5f774d7008fc937c5dfb85825e9f5cc4754ce8c715881da2c59071c3f2c46"
    (Engine.generation Uarch.All.skylake)

let test_generation_sensitivity () =
  let hsw = Uarch.All.haswell in
  let perturbed =
    {
      hsw with
      Uarch.Descriptor.profile =
        {
          hsw.Uarch.Descriptor.profile with
          Uarch.Profile.div32_latency =
            hsw.Uarch.Descriptor.profile.Uarch.Profile.div32_latency + 1;
        };
    }
  in
  Alcotest.(check bool) "one latency entry changes the generation" false
    (Engine.generation hsw = Engine.generation perturbed);
  Alcotest.(check bool) "but not the job fingerprint (same uarch id)" true
    (Engine.fingerprint
       { Engine.env = Harness.Environment.default; uarch = hsw;
         block = Corpus.Paper_blocks.gzip_crc }
    = Engine.fingerprint
        { Engine.env = Harness.Environment.default; uarch = perturbed;
          block = Corpus.Paper_blocks.gzip_crc });
  Alcotest.(check bool) "uarches have distinct generations" false
    (Engine.generation Uarch.All.haswell = Engine.generation Uarch.All.skylake)

(* --- engine integration ----------------------------------------------- *)

let paper_jobs uarch =
  List.map
    (fun block -> { Engine.env = Harness.Environment.default; uarch; block })
    [
      Corpus.Paper_blocks.gzip_crc;
      Corpus.Paper_blocks.division;
      Corpus.Paper_blocks.zero_idiom;
      Corpus.Paper_blocks.tensorflow_ablation;
    ]

(* The acceptance criterion: a second run against a populated store
   performs zero profiler calls for unchanged jobs and produces
   byte-identical output. *)
let test_warm_run_zero_profiler_calls () =
  with_store_dir "bhive_store_warm" (fun dir ->
      let jobs = paper_jobs Uarch.All.haswell in
      let n = List.length jobs in
      let cold =
        Engine.create ~jobs:2 ~faults:Faultsim.none ~store:(Store.open_ dir) ()
      in
      let b_cold = Engine.run_batch cold jobs in
      let s_cold = Engine.stats cold in
      Alcotest.(check int) "cold run misses the store" n s_cold.store_misses;
      Alcotest.(check int) "cold run executes everything" n s_cold.executed;
      Alcotest.(check int) "cold run persists every measurement" n
        s_cold.store_writes;
      Alcotest.(check bool) "cold run profiles" true (s_cold.profiler_calls > 0);
      Option.iter Store.close (Engine.store cold);
      (* a fresh engine: empty memo, warm disk tier *)
      let warm =
        Engine.create ~jobs:2 ~faults:Faultsim.none ~store:(Store.open_ dir) ()
      in
      let b_warm = Engine.run_batch warm jobs in
      let s_warm = Engine.stats warm in
      Alcotest.(check int) "warm run: zero profiler calls" 0
        s_warm.profiler_calls;
      Alcotest.(check int) "warm run: zero executions" 0 s_warm.executed;
      Alcotest.(check int) "warm run: every job served by the store" n
        s_warm.store_hits;
      Alcotest.(check int) "warm run: nothing invalidated" 0
        s_warm.store_invalidated;
      Alcotest.(check int) "warm run: nothing re-written" 0 s_warm.store_writes;
      Alcotest.(check (float 0.0)) "warm run: hit rate 1.0" 1.0
        (Engine.store_hit_rate s_warm);
      Alcotest.(check bool) "warm outcomes byte-identical to cold" true
        (b_cold.outcomes = b_warm.outcomes);
      (* resubmission within the warm engine stays in the memo tier:
         the store is consulted once per fingerprint *)
      ignore (Engine.run_batch warm jobs);
      let s2 = Engine.stats warm in
      Alcotest.(check int) "memo shields the store" n s2.store_hits;
      Alcotest.(check int) "resubmission hits the memo" n s2.cache_hits;
      Option.iter Store.close (Engine.store warm))

(* A segment whose header names another payload format is stale. The
   planted segment carries the header of a store written before the
   payload version joined the format tag, and one record: a well-formed
   outcome under the job's own key and generation, with a throughput
   no profile gives. The open serves it as empty and counts it stale;
   the engine re-profiles rather than decode the planted payload; and
   the first put rewrites the segment in the current format. *)
let test_foreign_format_tag_is_stale () =
  with_store_dir "bhive_store_format" (fun dir ->
      let job = List.hd (paper_jobs Uarch.All.haswell) in
      let key = Engine.fingerprint job and gen = Engine.generation job.uarch in
      let measured =
        (Engine.run_batch (Engine.create ~jobs:1 ~faults:Faultsim.none ()) [ job ])
          .outcomes.(0)
      in
      let planted : Engine.outcome =
        match measured with
        | Ok p -> Ok { p with throughput = p.throughput +. 1000.0 }
        | Error _ -> Alcotest.fail "the job should measure"
      in
      let st = Store.open_ dir in
      ignore (Store.put st ~key ~gen (Marshal.to_string planted []));
      Store.close st;
      let seg = shard_file dir key in
      let image = read_file seg in
      let magic = "BHIVESTORE1\n" in
      let tag_len =
        Store.Codec.get_u32 (Bytes.of_string image) (String.length magic)
      in
      let data = String.length magic + 4 + tag_len in
      let b = Buffer.create (String.length image) in
      Buffer.add_string b magic;
      Store.Codec.str b
        (Printf.sprintf "marshal/%s/%d" Sys.ocaml_version Sys.word_size);
      Buffer.add_string b (String.sub image data (String.length image - data));
      write_file seg (Buffer.contents b);
      let st = Store.open_ dir in
      let s = Store.stats st in
      Alcotest.(check int) "counted as a stale segment" 1
        s.Store.s_stale_segments;
      Alcotest.(check int) "served as empty" 0 s.Store.s_live;
      Alcotest.(check bool) "its record is a miss" true
        (Store.get st ~key ~gen = Store.Miss);
      let v = Store.verify st in
      Alcotest.(check int) "verify counts it stale" 1 v.Store.v_stale_segments;
      Alcotest.(check int) "and not corrupt" 0 v.Store.v_corrupt;
      Store.close st;
      let engine =
        Engine.create ~jobs:1 ~faults:Faultsim.none ~store:(Store.open_ dir) ()
      in
      let served = (Engine.run_batch engine [ job ]).outcomes.(0) in
      let es = Engine.stats engine in
      Option.iter Store.close (Engine.store engine);
      Alcotest.(check int) "the engine misses the store" 1 es.store_misses;
      Alcotest.(check int) "and re-profiles" 1 es.executed;
      Alcotest.(check bool) "the planted payload is never served" true
        (served = measured);
      let st = Store.open_ dir in
      let s = Store.stats st in
      Alcotest.(check int) "the first put rewrote the segment" 0
        s.Store.s_stale_segments;
      Alcotest.(check int) "it holds the one fresh record" 1 s.Store.s_live;
      (match Store.get st ~key ~gen with
      | Store.Hit payload ->
        Alcotest.(check bool) "the fresh record is the measured outcome" true
          ((Marshal.from_string payload 0 : Engine.outcome) = measured)
      | Store.Stale | Store.Miss -> Alcotest.fail "the fresh record is missing");
      Store.close st)

(* Perturbing one uarch table entry invalidates exactly that uarch's
   entries: the other uarch's records still hit. *)
let test_invalidation_is_surgical () =
  with_store_dir "bhive_store_inval" (fun dir ->
      let hsw_jobs = paper_jobs Uarch.All.haswell in
      let skl_jobs = paper_jobs Uarch.All.skylake in
      let n = List.length hsw_jobs in
      let cold =
        Engine.create ~jobs:2 ~faults:Faultsim.none ~store:(Store.open_ dir) ()
      in
      ignore (Engine.run_batch cold (hsw_jobs @ skl_jobs));
      Option.iter Store.close (Engine.store cold);
      (* edit one latency table entry of haswell *)
      let hsw = Uarch.All.haswell in
      let perturbed =
        {
          hsw with
          Uarch.Descriptor.profile =
            {
              hsw.Uarch.Descriptor.profile with
              Uarch.Profile.div32_latency =
                hsw.Uarch.Descriptor.profile.Uarch.Profile.div32_latency + 1;
            };
        }
      in
      let perturbed_jobs =
        List.map (fun j -> { j with Engine.uarch = perturbed }) hsw_jobs
      in
      let warm =
        Engine.create ~jobs:2 ~faults:Faultsim.none ~store:(Store.open_ dir) ()
      in
      let batch = Engine.run_batch warm (perturbed_jobs @ skl_jobs) in
      let s = Engine.stats warm in
      Alcotest.(check int)
        "exactly the perturbed uarch's entries invalidated" n
        s.store_invalidated;
      Alcotest.(check int) "the other uarch still hits" n s.store_hits;
      Alcotest.(check int) "invalidated jobs re-executed" n s.executed;
      Alcotest.(check int) "and re-persisted under the new generation" n
        s.store_writes;
      Alcotest.(check bool) "nothing quarantined by re-measurement" true
        (batch.quarantined = []);
      Option.iter Store.close (Engine.store warm);
      (* third run: the perturbed generation is now persisted too *)
      let third =
        Engine.create ~jobs:2 ~faults:Faultsim.none ~store:(Store.open_ dir) ()
      in
      ignore (Engine.run_batch third (perturbed_jobs @ skl_jobs));
      let s3 = Engine.stats third in
      Alcotest.(check int) "perturbed generation now hits" (2 * n) s3.store_hits;
      Alcotest.(check int) "nothing invalidated on the third run" 0
        s3.store_invalidated;
      Alcotest.(check int) "zero profiler calls on the third run" 0
        s3.profiler_calls;
      Option.iter Store.close (Engine.store third))

(* Quarantines are never persisted: a warm run re-derives them from the
   fault seed instead of trusting the disk. *)
let test_quarantines_not_persisted () =
  with_store_dir "bhive_store_quar" (fun dir ->
      let faults =
        match Faultsim.parse "crash=1,seed=2" with
        | Ok c -> c
        | Error msg -> Alcotest.fail msg
      in
      let job =
        {
          Engine.env = Harness.Environment.default;
          uarch = Uarch.All.haswell;
          block = Corpus.Paper_blocks.gzip_crc;
        }
      in
      let e1 =
        Engine.create ~jobs:1 ~faults ~max_retries:1 ~store:(Store.open_ dir) ()
      in
      let b1 = Engine.run_batch e1 [ job ] in
      Alcotest.(check int) "the job quarantined" 1
        (List.length b1.quarantined);
      Alcotest.(check int) "quarantine not written to the store" 0
        (Engine.stats e1).store_writes;
      Option.iter
        (fun st ->
          Alcotest.(check int) "store is empty" 0 (Store.stats st).Store.s_live;
          Store.close st)
        (Engine.store e1);
      let e2 =
        Engine.create ~jobs:1 ~faults ~max_retries:1 ~store:(Store.open_ dir) ()
      in
      let b2 = Engine.run_batch e2 [ job ] in
      Alcotest.(check bool) "warm run re-derives the same quarantine" true
        (b1.outcomes = b2.outcomes);
      Option.iter Store.close (Engine.store e2))

(* --- determinism matrix ----------------------------------------------- *)

let matrix_blocks =
  lazy
    (let config = { Corpus.Suite.default_config with scale = 2000 } in
     List.filteri (fun i _ -> i mod 5 = 0) (Corpus.Suite.generate ~config ()))

let check_datasets_equal what (a : Bhive.Dataset.t) (b : Bhive.Dataset.t) =
  Alcotest.(check int) (what ^ ": entry count") (List.length a.entries)
    (List.length b.entries);
  Alcotest.(check bool) (what ^ ": entries identical") true
    (a.entries = b.entries);
  Alcotest.(check bool) (what ^ ": failures identical") true
    (a.failures = b.failures);
  Alcotest.(check bool) (what ^ ": quarantined identical") true
    (a.quarantined = b.quarantined)

(* The ISSUE's determinism matrix: {cold, warm, post-compaction} x
   workers {1, 2, 4} must all produce byte-identical datasets, faults
   included. *)
let test_determinism_matrix () =
  let u = Uarch.All.haswell in
  let blocks = Lazy.force matrix_blocks in
  let faults =
    match Faultsim.parse "crash=0.03,seed=7" with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  let reference =
    Bhive.Dataset.build
      ~engine:(Engine.create ~jobs:1 ~faults:Faultsim.none ())
      u blocks
  in
  List.iter
    (fun jobs ->
      with_store_dir "bhive_store_matrix" (fun dir ->
          let build () =
            let engine =
              Engine.create ~jobs ~faults ~store:(Store.open_ dir) ()
            in
            let ds = Bhive.Dataset.build ~engine u blocks in
            let stats = Engine.stats engine in
            Option.iter Store.close (Engine.store engine);
            (ds, stats)
          in
          let cold, _ = build () in
          check_datasets_equal
            (Printf.sprintf "jobs=%d cold vs reference" jobs)
            reference cold;
          let warm, warm_stats = build () in
          check_datasets_equal (Printf.sprintf "jobs=%d warm" jobs) reference
            warm;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d warm: zero profiler calls" jobs)
            0 warm_stats.profiler_calls;
          (* compact, then run again against the compacted store *)
          let st = Store.open_ dir in
          ignore (Store.gc st);
          Store.close st;
          let post_gc, gc_stats = build () in
          check_datasets_equal (Printf.sprintf "jobs=%d post-gc" jobs)
            reference post_gc;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d post-gc: zero profiler calls" jobs)
            0 gc_stats.profiler_calls))
    [ 1; 2; 4 ]

(* --- environment validation ------------------------------------------- *)

(* Unix.putenv cannot unset a variable, so every parser treats the
   empty string as unset — restore with "" after each case. *)
let with_env var value f =
  let old = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var old) f

let test_env_jobs_messages () =
  with_env "BHIVE_JOBS" "abc" (fun () ->
      Alcotest.(check bool) "malformed BHIVE_JOBS rejected" true
        (Engine.jobs_from_env ()
        = Error "invalid BHIVE_JOBS=\"abc\": expected a positive integer");
      Alcotest.(check bool) "validate_env reports it" true
        (Result.is_error (Engine.validate_env ())));
  with_env "BHIVE_JOBS" "0" (fun () ->
      Alcotest.(check bool) "zero rejected" true
        (Engine.jobs_from_env ()
        = Error "invalid BHIVE_JOBS=\"0\": expected a positive integer"));
  with_env "BHIVE_JOBS" "-4" (fun () ->
      Alcotest.(check bool) "negative rejected" true
        (Result.is_error (Engine.jobs_from_env ())));
  with_env "BHIVE_JOBS" "3" (fun () ->
      Alcotest.(check bool) "positive accepted" true
        (Engine.jobs_from_env () = Ok (Some 3)));
  with_env "BHIVE_JOBS" "" (fun () ->
      Alcotest.(check bool) "empty means unset" true
        (Engine.jobs_from_env () = Ok None))

let test_env_faults_messages () =
  with_env "BHIVE_FAULTS" "crash=2" (fun () ->
      match Faultsim.env_result () with
      | Error msg ->
        Alcotest.(check bool) "message names the variable and value" true
          (contains ~needle:"invalid BHIVE_FAULTS=\"crash=2\":" msg);
        Alcotest.(check bool) "validate_env reports it" true
          (Result.is_error (Engine.validate_env ()))
      | Ok _ -> Alcotest.fail "crash=2 should be rejected");
  with_env "BHIVE_FAULTS" "bogus=1" (fun () ->
      Alcotest.(check bool) "unknown key rejected" true
        (Result.is_error (Faultsim.env_result ())));
  with_env "BHIVE_FAULTS" "crash=0.1,seed=5" (fun () ->
      Alcotest.(check bool) "well-formed spec accepted" true
        (Result.is_ok (Faultsim.env_result ())));
  with_env "BHIVE_FAULTS" "" (fun () ->
      Alcotest.(check bool) "empty means unset" true
        (Faultsim.env_result () = Ok Faultsim.none))

let test_env_store_messages () =
  let file = Filename.temp_file "bhive_store_env" "" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      with_env "BHIVE_STORE" file (fun () ->
          Alcotest.(check bool) "non-directory path rejected" true
            (Engine.store_path_from_env ()
            = Error
                (Printf.sprintf
                   "invalid BHIVE_STORE=%S: exists and is not a directory" file));
          Alcotest.(check bool) "validate_env reports it" true
            (Result.is_error (Engine.validate_env ()))));
  with_env "BHIVE_STORE" "" (fun () ->
      Alcotest.(check bool) "empty means unset" true
        (Engine.store_path_from_env () = Ok None));
  with_store_dir "bhive_store_envdir" (fun dir ->
      with_env "BHIVE_STORE" dir (fun () ->
          Alcotest.(check bool) "directory accepted" true
            (Engine.store_path_from_env () = Ok (Some dir))))

(* --- Multi-process sharing -------------------------------------------- *)

(* The cross-process protocol (per-shard advisory file locks, resync
   before append, torn-tail truncation under the lock) is exercised
   with real processes. [Unix.fork] is forbidden once other domains
   exist (the engine tests above spawn workers), so the children are
   this very test binary re-executed in a child role — [child_main]
   below is dispatched from main.ml before Alcotest starts. *)

let child_tag = "store-mp-child"

(* argv: <exe> store-mp-child <role> <dir> <arg>. Exits the process. *)
let child_main argv =
  let role = argv.(2) and dir = argv.(3) in
  let s = Store.open_ dir in
  (match role with
  | "put-range" ->
    let base = int_of_string argv.(4) * 32 in
    for k = 0 to 63 do
      let key = Printf.sprintf "key-%03d" (base + k) in
      ignore (Store.put s ~key ~gen:"g1" ("payload:" ^ key))
    done
  | "spin" ->
    (* append until killed; the parent SIGKILLs this process *)
    let payload = String.make 4096 'x' in
    let i = ref 0 in
    while true do
      incr i;
      ignore (Store.put s ~key:(Printf.sprintf "k%06d" !i) ~gen:"g" payload)
    done
  | "put-one" -> ignore (Store.put s ~key:argv.(4) ~gen:"g" "from-child")
  | role ->
    prerr_endline ("unknown child role " ^ role);
    exit 2);
  Store.close s;
  exit 0

let spawn_child role dir arg =
  let exe = Sys.executable_name in
  Unix.create_process exe
    [| exe; child_tag; role; dir; arg |]
    Unix.stdin Unix.stdout Unix.stderr

let wait_child what pid =
  let _, status = Store.Eintr.intr (fun () -> Unix.waitpid [] pid) in
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n ->
    Alcotest.fail (Printf.sprintf "%s: child exited %d" what n)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail (what ^ ": child killed")

let test_multiprocess_concurrent_puts () =
  with_store_dir "bhive_mp" (fun dir ->
      (* 4 children, each appending 64 records; key ranges overlap so
         the same (key, gen) is raced by several writers *)
      let pids =
        List.init 4 (fun i -> spawn_child "put-range" dir (string_of_int i))
      in
      List.iter (wait_child "concurrent put") pids;
      let s = Store.open_ dir in
      let report = Store.verify s in
      Alcotest.(check int) "no corrupt records" 0 report.Store.v_corrupt;
      (* distinct keys: ranges 0..63, 32..95, 64..127, 96..159 = 160,
         and the lock protocol must have deduplicated every race *)
      Alcotest.(check int) "every key live exactly once" 160
        report.Store.v_live;
      Alcotest.(check int) "no duplicate appends" 160 report.Store.v_records;
      (match Store.get s ~key:"key-042" ~gen:"g1" with
      | Store.Hit p -> Alcotest.(check string) "payload" "payload:key-042" p
      | _ -> Alcotest.fail "raced key not served");
      Store.close s)

let test_multiprocess_kill9_writer () =
  with_store_dir "bhive_mp_kill" (fun dir ->
      (* a writer killed with SIGKILL mid-append may leave a torn tail
         but never a corrupt record that a reopen would serve *)
      let pid = spawn_child "spin" dir "" in
      Unix.sleepf 0.25;
      Unix.kill pid Sys.sigkill;
      ignore (Store.Eintr.intr (fun () -> Unix.waitpid [] pid));
      let s = Store.open_ dir in
      let report = Store.verify s in
      Alcotest.(check int) "zero corrupt after SIGKILL" 0
        report.Store.v_corrupt;
      Alcotest.(check bool) "the writer made progress" true
        (report.Store.v_live > 0);
      (* the survivor can keep appending to the same shards *)
      Alcotest.(check bool) "store still writable" true
        (Store.put s ~key:"after-crash" ~gen:"g" "ok");
      Store.close s)

let test_multiprocess_foreign_visibility () =
  with_store_dir "bhive_mp_vis" (fun dir ->
      let parent = Store.open_ dir in
      (* a record appended by another process is not visible to the
         parent's get until a resynchronising operation *)
      let pid = spawn_child "put-one" dir "foreign" in
      wait_child "foreign append" pid;
      (match Store.get parent ~key:"foreign" ~gen:"g" with
      | Store.Miss -> ()
      | _ -> Alcotest.fail "foreign append visible without a resync");
      (* verify rescans from disk and synchronises the index *)
      let report = Store.verify parent in
      Alcotest.(check int) "foreign record scanned" 1 report.Store.v_live;
      (match Store.get parent ~key:"foreign" ~gen:"g" with
      | Store.Hit p -> Alcotest.(check string) "payload" "from-child" p
      | _ -> Alcotest.fail "foreign append still invisible after verify");
      Store.close parent)

let suite =
  [
    Alcotest.test_case "sha256: FIPS 180-4 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "codec: round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: fnv1a64 vectors" `Quick test_fnv1a64_vectors;
    Alcotest.test_case "store: put/get/stale/supersede" `Quick
      test_store_basics;
    Alcotest.test_case "store: fold is key-sorted" `Quick
      test_store_fold_sorted;
    Alcotest.test_case "store: binary payloads" `Quick
      test_store_binary_payload;
    Alcotest.test_case "store: rejects a file path" `Quick
      test_store_rejects_file_path;
    Alcotest.test_case "crash safety: truncation at every offset" `Quick
      test_truncation_at_every_offset;
    Alcotest.test_case "crash safety: bit flip detected" `Quick
      test_bitflip_detected;
    Alcotest.test_case "sidecar: torn segment with index" `Quick
      test_sidecar_torn_segment_with_index;
    Alcotest.test_case "gc: compaction" `Quick test_gc_compaction;
    Alcotest.test_case "gc: re-anchors the lock-free read fd" `Quick
      test_gc_reanchors_read_fd;
    Alcotest.test_case "gc: sibling compaction inode swap" `Quick
      test_sibling_gc_inode_swap;
    Alcotest.test_case "gc: a failed rewrite leaves the handle whole" `Quick
      test_gc_failure_leaves_handle_whole;
    Alcotest.test_case "store: fold after sibling compaction" `Quick
      test_fold_after_sibling_gc;
    Alcotest.test_case "store: a record altered after open is never handed out"
      `Quick test_altered_record_never_served;
    Alcotest.test_case "store: readers and writers across domains" `Quick
      test_domains_read_and_write;
    Alcotest.test_case "store: put refuses what the scan rejects" `Quick
      test_put_refuses_out_of_bounds;
    Alcotest.test_case "concurrent puts from domains" `Quick
      test_concurrent_puts;
    Alcotest.test_case "golden fingerprints pinned" `Quick
      test_golden_fingerprints;
    Alcotest.test_case "generation sensitivity" `Quick
      test_generation_sensitivity;
    Alcotest.test_case "warm run: zero profiler calls" `Quick
      test_warm_run_zero_profiler_calls;
    Alcotest.test_case "stale segment: foreign format tag" `Quick
      test_foreign_format_tag_is_stale;
    Alcotest.test_case "invalidation is surgical" `Quick
      test_invalidation_is_surgical;
    Alcotest.test_case "quarantines are not persisted" `Quick
      test_quarantines_not_persisted;
    Alcotest.test_case "determinism matrix: tiers x workers" `Quick
      test_determinism_matrix;
    Alcotest.test_case "env: BHIVE_JOBS messages" `Quick
      test_env_jobs_messages;
    Alcotest.test_case "env: BHIVE_FAULTS messages" `Quick
      test_env_faults_messages;
    Alcotest.test_case "env: BHIVE_STORE messages" `Quick
      test_env_store_messages;
    Alcotest.test_case "multi-process: concurrent puts" `Quick
      test_multiprocess_concurrent_puts;
    Alcotest.test_case "multi-process: SIGKILL mid-write" `Quick
      test_multiprocess_kill9_writer;
    Alcotest.test_case "multi-process: foreign append visibility" `Quick
      test_multiprocess_foreign_visibility;
  ]
