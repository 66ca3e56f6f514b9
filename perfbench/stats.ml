(* Sample statistics and the outcome digest the workloads report.

   Latencies stay in nanoseconds as read from the monotonic clock until
   they are printed, so a ~30 us round trip is not quantised. A
   percentile is reported only when at least [min_beyond] samples rank
   above it; below that it is a refusal, never a number. *)

let min_beyond = 10

(* Nearest rank: the 1-based rank ceil(q n), clamped to [1, n]. *)
let rank n q =
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

(* Samples ranked strictly above the q-th percentile of n samples. *)
let beyond n q = n - rank n q

(* Smallest sample count whose q-th percentile has [min_beyond] samples
   beyond it. *)
let samples_needed q =
  let rec go n = if beyond n q >= min_beyond then n else go (n + 1) in
  go 1

(* [percentile sorted q] over an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  let b = if n = 0 then 0 else beyond n q in
  if b < min_beyond then
    Error
      (Printf.sprintf "p%g refused: %d samples beyond it of %d, need %d"
         (q *. 100.0) b n min_beyond)
  else Ok sorted.(rank n q - 1)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Median of a non-empty list, averaging the middle pair. *)
let median xs =
  let s = sorted_copy (Array.of_list xs) in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: empty"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Growable float buffer: the per-thread latency log. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len

  let concat ts = Array.concat (List.map to_array ts)
end

(* The per-workload output check: SHA-256 over the canonical wire
   rendering of every outcome, one per line, in submission order. The
   same rendering is what the daemon sends, so a digest from an
   in-process run and one from served replies are comparable. *)
let render (o : Engine.outcome) =
  Telemetry.Json.to_string ~compact:true (Serve.Wire.outcome_json o)

let digest_rendered lines =
  let b = Buffer.create 4096 in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  Store.Sha256.hex (Buffer.contents b)

let outcome_sha256 outcomes = digest_rendered (List.map render outcomes)

(* A run's completed ops, as parallel unboxed buffers: completion time
   (ns on the run's timed clock), ops completed, latency (ns; nan when
   the event carries no latency sample). *)
module Events = struct
  type t = { at : Samples.t; ops : Samples.t; lat : Samples.t }

  let create () = { at = Samples.create (); ops = Samples.create (); lat = Samples.create () }

  let add t ~at ~ops ~lat =
    Samples.add t.at at;
    Samples.add t.ops (float_of_int ops);
    Samples.add t.lat lat

  let length t = Samples.length t.at

  let concat ts =
    let cat f = Samples.concat (List.map f ts) in
    (cat (fun t -> t.at), cat (fun t -> t.ops), cat (fun t -> t.lat))
end

type summary = {
  ops_per_s : float;
  p50_ns : float;
  p99_ns : float;
  per_window : (float * float * float) list;  (** ops/s, p50, p99 of each window *)
}

(* Windowed medians. The events, in completion order, are cut into
   consecutive windows holding equal numbers of latency samples, as
   many windows as hold [samples_needed 0.99] samples each; every
   figure is the median over windows of its value in each window. A
   burst of host noise (a preempted thread, a neighbour's spike) then
   moves the few windows it falls in, not the run's figure. A window's
   throughput is its ops over the time since the previous window ended
   (the first starts at [start_ns]). Refuses (Error) when the run has
   too few latency samples for one window. *)
let summarize ~start_ns events =
  let at, ops, lat = Events.concat events in
  let n = Array.length at in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare at.(i) at.(j)) order;
  let with_lat = List.filter (fun i -> not (Float.is_nan lat.(order.(i)))) (List.init n Fun.id) in
  let with_lat = Array.of_list with_lat in
  let m = Array.length with_lat in
  let k = max 1 (m / samples_needed 0.99) in
  let first w = if w = 0 then 0 else if w = k then n else with_lat.(w * m / k) in
  let window w =
    let lo = first w and hi = first (w + 1) in
    let l =
      Array.init (hi - lo) (fun i -> lat.(order.(lo + i)))
      |> Array.to_list |> List.filter (fun x -> not (Float.is_nan x)) |> Array.of_list
      |> sorted_copy
    in
    match (percentile l 0.50, percentile l 0.99) with
    | Error msg, _ | _, Error msg -> Error msg
    | Ok p50, Ok p99 ->
      let t0 = if w = 0 then start_ns else at.(order.(lo - 1)) in
      let done_ = ref 0.0 in
      for i = lo to hi - 1 do
        done_ := !done_ +. ops.(order.(i))
      done;
      Ok (!done_ /. ((at.(order.(hi - 1)) -. t0) /. 1e9), p50, p99)
  in
  let rec go w acc =
    if w = k then Ok (List.rev acc)
    else match window w with Ok v -> go (w + 1) (v :: acc) | Error msg -> Error msg
  in
  match go 0 [] with
  | Error msg -> Error msg
  | Ok vs ->
    let med f = median (List.map f vs) in
    Ok
      {
        ops_per_s = med (fun (o, _, _) -> o);
        p50_ns = med (fun (_, p, _) -> p);
        p99_ns = med (fun (_, _, p) -> p);
        per_window = vs;
      }
