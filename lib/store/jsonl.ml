(* Crash-safe append-only JSONL files.

   The run journal (lib/manifest) needs the same discipline the store's
   segments follow: a record is only trusted once its terminating
   newline is on disk, and a torn tail — the half-written record a kill
   leaves behind — is truncated away at open time, never served. This
   module owns exactly that file discipline and nothing else: lines in,
   lines out. It does not parse JSON; callers pass a [valid] predicate
   so that a final record whose bytes made it to disk but whose content
   is garbage is also treated as torn. A garbage line in the {e middle}
   of the file is not a torn tail — it means the file is not what we
   wrote, and opening fails rather than silently dropping records. *)

type t = { fd : Unix.file_descr }

let read_all fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off < len then begin
      match Eintr.read fd buf off (len - off) with
      | 0 -> off
      | n -> go (off + n)
    end
    else off
  in
  let got = go 0 in
  Bytes.sub_string buf 0 got

(* Scan the complete ('\n'-terminated) lines of [contents]. Returns the
   valid prefix plus the byte offset where the file should be truncated
   ([None] when every byte is sound), or [Error] for mid-file
   corruption. *)
let scan ~valid contents =
  let len = String.length contents in
  let rec go off acc =
    if off >= len then Ok (List.rev acc, None)
    else
      match String.index_from_opt contents off '\n' with
      | None -> Ok (List.rev acc, Some off) (* torn tail: no newline *)
      | Some nl ->
        let line = String.sub contents off (nl - off) in
        if valid line then go (nl + 1) (line :: acc)
        else if nl + 1 >= len then Ok (List.rev acc, Some off)
        else Error off
  in
  go 0 []

let open_ ?(fresh = false) ?(valid = fun _ -> true) path =
  match Unix.openfile path [ O_RDWR; O_CREAT; O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot open %s: %s" path (Unix.error_message e))
  | fd ->
    if fresh then Unix.ftruncate fd 0;
    let len = (Unix.fstat fd).Unix.st_size in
    let contents = read_all fd len in
    (match scan ~valid contents with
    | Error off ->
      Unix.close fd;
      Error
        (Printf.sprintf
           "%s: corrupt record at byte %d (not at the tail — refusing to \
            truncate mid-file)"
           path off)
    | Ok (lines, truncate_at) ->
      Option.iter (fun off -> Unix.ftruncate fd off) truncate_at;
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      Ok ({ fd }, lines))

(* Eintr-wrapped: a SIGTERM arriving mid-append must not tear the
   journal tail beyond what the open-time truncation already covers. *)
let append t line = Eintr.really_write_substring t.fd (line ^ "\n")

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
