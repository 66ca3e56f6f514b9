(* See trace.mli. The disabled fast path must not allocate: [span]
   performs exactly one Atomic.get and calls the body directly, and
   [Monotonic_clock.now] is a [@noalloc] external with an unboxed
   return, so even the enabled path's clock reads stay off the minor
   heap. *)

type value = Bool of bool | Int of int | Float of float | Str of string

(* [live] is read and written under [lock], which also serialises
   [write] and [close]: once a write or close has failed, or the sink
   has been closed, no record reaches it. *)
type sink = {
  name : string;
  write : string -> unit;
  close : unit -> unit;
  lock : Mutex.t;
  mutable live : bool;
}

let current : sink option Atomic.t = Atomic.make None
let t0_ns : int64 Atomic.t = Atomic.make 0L
let next_id = Atomic.make 1
let stack_key = Domain.DLS.new_key (fun () -> ref ([] : int list))

let now_ns () = Monotonic_clock.now ()

(* [s]'s first failed write or close [e], with [s.lock] held: [s] takes
   no more records and leaves [current] if it is still there, and one
   stderr line names it and the error. The traced program runs on as if
   untraced. *)
let fail s e =
  s.live <- false;
  (match Atomic.get current with
  | Some s' as cur when s' == s -> ignore (Atomic.compare_and_set current cur None)
  | _ -> ());
  let msg = match e with Sys_error m -> m | e -> Printexc.to_string e in
  Printf.eprintf "bhive: trace %s: %s; tracing stopped\n%!" s.name msg

let write_record s line =
  Mutex.protect s.lock (fun () ->
      if s.live then
        try s.write line
        with e ->
          fail s e;
          try s.close () with _ -> ())

let uninstall () =
  match Atomic.exchange current None with
  | None -> ()
  | Some s ->
    Mutex.protect s.lock (fun () ->
        if s.live then begin
          s.live <- false;
          try s.close () with e -> fail s e
        end)

let install ~name ~write ~close =
  uninstall ();
  Atomic.set t0_ns (now_ns ());
  Atomic.set current (Some { name; write; close; lock = Mutex.create (); live = true })

let install_custom ~write ~close = install ~name:"custom sink" ~write ~close

let init ?path () =
  let path =
    match path with
    | Some _ -> path
    | None -> ( match Sys.getenv_opt "BHIVE_TRACE" with Some "" -> None | p -> p)
  in
  match path with
  | None -> Ok ()
  | Some path -> (
    match open_out path with
    | exception Sys_error m -> Error ("cannot open trace file " ^ m)
    | oc ->
      install ~name:path
        ~write:(fun line ->
          output_string oc line;
          output_char oc '\n')
        ~close:(fun () ->
          (* close_out leaves the descriptor open when its flush fails *)
          Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> flush oc));
      at_exit uninstall;
      Ok ())

let value_to_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Number (float_of_int i)
  | Float f -> Json.Number f
  | Str s -> Json.String s

let emit s ~kind ~name ~id ~parent ~ts_ns ~dur_ns ~attrs =
  let us ns = Int64.to_float ns /. 1e3 in
  let base =
    [
      ("type", Json.String kind);
      ("name", Json.String name);
      ("id", Json.Number (float_of_int id));
      ("parent", Json.Number (float_of_int parent));
      ("domain", Json.Number (float_of_int (Domain.self () :> int)));
      ("ts_us", Json.Number (us (Int64.sub ts_ns (Atomic.get t0_ns))));
    ]
  in
  let base =
    match dur_ns with
    | None -> base
    | Some d -> base @ [ ("dur_us", Json.Number (us d)) ]
  in
  let fields =
    match attrs with
    | [] -> base
    | attrs ->
      base
      @ [
          ( "attrs",
            Json.Object (List.map (fun (k, v) -> (k, value_to_json v)) attrs) );
        ]
  in
  write_record s (Json.to_string ~compact:true (Json.Object fields))

let current_span () =
  match !(Domain.DLS.get stack_key) with [] -> 0 | id :: _ -> id

let span ?parent ?attrs name f =
  match Atomic.get current with
  | None -> f ()
  | Some s -> (
    let stack = Domain.DLS.get stack_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match !stack with [] -> 0 | p :: _ -> p)
    in
    stack := id :: !stack;
    let start_ns = now_ns () in
    let finish attrs =
      let dur = Int64.sub (now_ns ()) start_ns in
      (match !stack with _ :: tl -> stack := tl | [] -> ());
      emit s ~kind:"span" ~name ~id ~parent ~ts_ns:start_ns ~dur_ns:(Some dur)
        ~attrs:(attrs ())
    in
    match f () with
    | r ->
      finish (fun () -> match attrs with None -> [] | Some mk -> mk r);
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish (fun () -> []);
      Printexc.raise_with_backtrace e bt)

let instant ?attrs name =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    let id = Atomic.fetch_and_add next_id 1 in
    let attrs = match attrs with None -> [] | Some mk -> mk () in
    emit s ~kind:"instant" ~name ~id ~parent:(current_span ())
      ~ts_ns:(now_ns ()) ~dur_ns:None ~attrs
