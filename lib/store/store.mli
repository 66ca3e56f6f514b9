(** Persistent, sharded, content-addressed measurement store.

    This is the disk tier of the engine's cache hierarchy (memory memo
    -> disk store -> real profiler). A store is a directory of 16
    append-only binary segments, sharded by key so engine worker
    domains append concurrently without contending on one file lock.
    A shard is its segment plus a [.lock] sibling; the segment is the
    only on-disk format (an [.idx] file that an older store left next
    to a segment is ignored).

    A segment starts with a header naming the writer's payload format:
    the Marshal dialect (OCaml release, word size) and the version of
    the marshalled outcome type. A segment whose header names another
    format is stale: served as empty, counted in [s_stale_segments],
    and rewritten by the first append, so its payloads are never
    decoded as the current type.

    Records are framed as

    {v
      u32 magic | u16 key_len | u16 gen_len | u32 payload_len
      key bytes | gen bytes | payload bytes | u64 FNV-1a checksum
    v}

    where [key] is the stable content digest of the job (block bytes +
    environment + uarch id), [gen] is the generation fingerprint of the
    profiler configuration and uarch descriptor tables, and [payload]
    is an opaque measurement blob. The checksum covers frame and body,
    so a torn or bit-flipped tail record is detected at open time and
    truncated away — never served.

    Lookups are generation-keyed: a record whose key matches but whose
    generation does not is reported as {!Stale}, which is how editing a
    latency table invalidates exactly the affected entries. Appending
    a record for an existing key supersedes the previous generation;
    {!gc} rewrites live records and drops superseded ones.

    All operations are safe to call from multiple domains of one
    process. Across processes the store is shared through per-shard
    advisory file locks (a [.lock] sibling per segment): every append
    takes the shard's file lock, resynchronises the in-memory index
    with whatever other processes appended since the shard was last
    looked at, truncates the torn tail a killed foreign writer may
    have left, and only then writes — so several server processes can
    share one directory with a single writer per shard at any instant
    and no duplicated records for the same (key, generation).

    Each shard reads and appends through one descriptor, opened on the
    segment inode its index was built from and replaced only where the
    index is rebuilt from the file. Every read ({!get}, {!fold}, {!gc},
    {!verify}) takes the shard's lock and serves the process's last
    synchronised snapshot plus its own writes; records appended by
    another process become visible at the next {!put} on that shard,
    {!verify}, or reopen. Every payload the store hands out is read
    back whole and its frame and checksum checked first, so a record
    altered on disk after it was indexed is never served, exported or
    rewritten. {!gc} rewrites segment files (rename-over-tmp); another
    process sharing the directory keeps reading the inodes its index
    describes until its next {!put} or {!verify} rebuilds the index
    from the new ones. *)

type t

(** Open (creating if needed) the store rooted at a directory path.
    Each shard opens by one scan of its segment under the shard's file
    lock: every record's frame and checksum are checked and the
    in-memory index is built from the intact prefix. A torn or
    bit-flipped tail is truncated away (counted in [s_torn]), never
    served. Raises [Failure] if the path exists and is not a
    directory. *)
val open_ : string -> t

val close : t -> unit
val dir : t -> string

type lookup =
  | Hit of string  (** payload, current generation *)
  | Stale  (** key present but written under a different generation *)
  | Miss

(** Warm-path lookup: an index probe and one read of the record, both
    under the shard lock. A record whose frame or checksum no longer
    holds is a {!Miss}, never a wrong payload. *)
val get : t -> key:string -> gen:string -> lookup

(** Append a record. Returns [false] (and writes nothing) when the
    live record for [key] already has this [gen]: payloads are
    deterministic functions of (key, gen), so rewriting is pure
    churn. Returns [true] after a durable append.

    Raises [Invalid_argument], and writes nothing, for a record the
    open-time scan would reject: an empty key, or a key or [gen] over
    4,096 bytes, or a payload over 64 MiB. Appended, such a record
    would read as a torn tail at the next open and be truncated
    together with every later record of its shard. *)
val put : t -> key:string -> gen:string -> string -> bool

(** Iterate live records in deterministic (key-sorted) order. A
    record that fails its check is left out. *)
val fold : t -> init:'a -> f:('a -> key:string -> gen:string -> string -> 'a) -> 'a

type gen_stats = {
  g_gen : string;  (** generation fingerprint *)
  g_live : int;  (** live records stored under it *)
  g_bytes : int;  (** their summed payload bytes *)
}

(** Live records grouped by generation, heaviest (most live records)
    first; ties broken by fingerprint. With block-sensitive generations
    this is the per-candidate invalidation footprint. *)
val gen_stats : t -> gen_stats list

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
  s_live : int;  (** records served by the index *)
  s_records : int;  (** total records on disk, including superseded *)
  s_superseded : int;
  s_torn : int;  (** torn-tail truncation events observed at open *)
  s_stale_segments : int;
      (** segments whose header belongs to an incompatible writer
          (different format or OCaml version); treated as empty and
          rewritten on first append *)
  s_bytes : int;
  s_open_seconds : float;  (** summed per-shard open (scan) wall time *)
  s_per_shard : shard_stats list;
}

val stats : t -> stats

type verify_report = {
  v_live : int;
  v_records : int;
  v_corrupt : int;  (** checksum failures found by this scan *)
  v_torn : int;  (** torn-tail events recorded when the store was opened *)
  v_stale_segments : int;
}

(** Re-scan every segment from disk and re-check every record
    checksum. A clean store reports [v_corrupt = 0]. *)
val verify : t -> verify_report

type gc_report = {
  g_live : int;
  g_dropped : int;
      (** superseded records, and records that fail their check,
          removed *)
  g_bytes_before : int;
  g_bytes_after : int;
}

(** Compact: rewrite each segment with only live records, key-sorted,
    dropping superseded generations and records that fail their check,
    and reclaiming torn/stale bytes. Each shard's rewrite is written
    aside and renamed over its segment; if that raises (a full disk, a
    failed rename), the exception propagates and the shard goes on
    describing its old segment, which is still on disk. *)
val gc : t -> gc_report

module Sha256 : sig
  val digest : string -> string
  val hex : string -> string
  val to_hex : string -> string
end

module Codec : module type of Codec

(** EINTR-retry wrappers for the blocking Unix syscalls issued by the
    store, the journal, and the serve loop. A signal landing mid-call
    (SIGTERM during a drain, SIGCHLD in a forked test) must retry the
    syscall, not surface as a spurious [Unix_error (EINTR, _, _)].
    Lives here — not lib/core — because store is the lowest library in
    the dependency graph that touches Unix. *)
module Eintr : sig
  (** Run [f], retrying as long as it raises [Unix_error (EINTR, _, _)]. *)
  val intr : (unit -> 'a) -> 'a

  val read : Unix.file_descr -> Bytes.t -> int -> int -> int

  (** Write the whole string, looping over partial writes. *)
  val really_write_substring : Unix.file_descr -> string -> unit

  (** Read exactly [len] bytes; [false] on premature EOF. *)
  val really_read : Unix.file_descr -> Bytes.t -> int -> int -> bool
end

(** Crash-safe append-only JSONL files — the discipline the run journal
    (lib/manifest) shares with the store's segments: a record counts
    only once its terminating newline is on disk; a torn or invalid
    tail is truncated at open time; mid-file corruption refuses to
    open. *)
module Jsonl : sig
  type t

  (** Open (creating if needed) for appending, returning the complete
      lines already present. [~fresh:true] truncates first. A final
      line that is unterminated or fails [valid] is truncated away; an
      invalid line anywhere else is an [Error]. *)
  val open_ :
    ?fresh:bool ->
    ?valid:(string -> bool) ->
    string ->
    (t * string list, string) result

  (** Append one line (the newline is added) and push it to the OS. *)
  val append : t -> string -> unit

  val close : t -> unit
end
