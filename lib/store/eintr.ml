(* EINTR-retry wrappers for the blocking Unix syscalls this codebase
   issues directly (segment appends, journal I/O, the serve accept
   loop). A signal delivered mid-syscall — SIGTERM during a drain,
   SIGCHLD from a forked test — makes the kernel return EINTR, which
   OCaml surfaces as [Unix_error (EINTR, _, _)]. None of our call
   sites want to observe that: the operation should simply be retried.
   Interruption policy lives with whoever installed the signal handler
   (e.g. the serve drain flag), not in the I/O path.

   This lives in lib/store rather than lib/core because store is the
   lowest library in the dependency graph that touches Unix — lib/core
   sits above the engine and cannot be a dependency of the store or
   the journal. *)

let rec intr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> intr f

let read fd buf off len = intr (fun () -> Unix.read fd buf off len)

let write_substring fd s off len =
  intr (fun () -> Unix.write_substring fd s off len)

let lockf fd cmd len = intr (fun () -> Unix.lockf fd cmd len)

(* Loop a partial-write syscall to completion. *)
let really_write_substring fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + write_substring fd s off (len - off))
  in
  go 0

(* Read exactly [len] bytes into [buf] starting at [off]; returns
   [false] on EOF before [len] bytes arrived. *)
let really_read fd buf off len =
  let rec go off remaining =
    if remaining = 0 then true
    else
      match read fd buf off remaining with
      | 0 -> false
      | n -> go (off + n) (remaining - n)
  in
  go off len
