(* In-memory span recorder for the traced run. A span is recorded around
   one call into a layer, from the benchmark's own code; spans of one op
   share an op id, and a span opened inside another names it as parent.
   Nothing is written until [write] at exit, so recording costs two
   clock reads and one allocation per span. Single-threaded by design:
   the traced replay runs on one thread. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  op : int;  (** the op whose inputs this call replays *)
  name : string;
  t0 : int64;
  t1 : int64;
}

let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref 0

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  current_op := 0

let set_op op = current_op := op

let with_span name f =
  incr next_id;
  let id = !next_id in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = Telemetry.Trace.now_ns () in
  let finish () =
    let t1 = Telemetry.Trace.now_ns () in
    stack := List.tl !stack;
    recorded := { id; parent; op = !current_op; name; t0; t1 } :: !recorded
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* A span timed elsewhere (another thread), recorded as a root. *)
let add name ~t0 ~t1 =
  incr next_id;
  recorded := { id = !next_id; parent = 0; op = !current_op; name; t0; t1 } :: !recorded

let duration s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Per-name totals: (calls, self nanoseconds), where a span's self time
   is its duration minus the durations of its direct children. Children
   of one span never overlap (one thread), so that difference is the
   part of the interval no child covers. *)
let self_times spans =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id)
      in
      let calls, ns =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals s.name)
      in
      Hashtbl.replace totals s.name (calls + 1, ns +. self))
    spans;
  totals

(* Mean self time of one call, microseconds; 0 when never called. *)
let mean_self_us totals name =
  match Hashtbl.find_opt totals name with
  | Some (calls, ns) when calls > 0 -> ns /. float_of_int calls /. 1e3
  | _ -> 0.0

let calls totals name =
  match Hashtbl.find_opt totals name with Some (c, _) -> c | None -> 0

(* One JSON object per line, in start order. *)
let write path =
  let spans = List.rev !recorded in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"t0_ns\":%Ld,\"t1_ns\":%Ld}\n"
            s.id s.parent s.op s.name s.t0 s.t1)
        spans)
