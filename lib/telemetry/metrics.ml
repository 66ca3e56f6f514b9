(* See metrics.mli. *)

type counter = { c_name : string; cell : int Atomic.t }

let n_buckets = 44
let bias = 21

type histogram = {
  h_name : string;
  lock : Mutex.t;
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
}

let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  with_registry (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_name = name; cell = Atomic.make 0 } in
        Hashtbl.add counters name c;
        c)

let incr c = ignore (Atomic.fetch_and_add c.cell 1)
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let value c = Atomic.get c.cell

let histogram name =
  with_registry (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          {
            h_name = name;
            lock = Mutex.create ();
            buckets = Array.make n_buckets 0;
            h_count = 0;
            h_sum = 0.0;
          }
        in
        Hashtbl.add histograms name h;
        h)

(* frexp gives v = m * 2^e with m in [0.5, 1), i.e. 2^(e-1) <= v < 2^e. *)
let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    Int.max 0 (Int.min (n_buckets - 1) (e + bias))

let upper_bound i = Float.ldexp 1.0 (i - bias)

let with_histogram h f =
  Mutex.lock h.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.lock) f

let observe h v =
  with_histogram h (fun () ->
      let b = bucket_of v in
      h.buckets.(b) <- h.buckets.(b) + 1;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v)

let count h = with_histogram h (fun () -> h.h_count)
let sum h = with_histogram h (fun () -> h.h_sum)

let quantile h q =
  with_histogram h (fun () ->
      if h.h_count = 0 then 0.0
      else begin
        let target = Float.max 1.0 (q *. float_of_int h.h_count) in
        let result = ref (upper_bound (n_buckets - 1)) in
        let cum = ref 0 in
        (try
           for i = 0 to n_buckets - 1 do
             cum := !cum + h.buckets.(i);
             if float_of_int !cum >= target then begin
               result := upper_bound i;
               raise Exit
             end
           done
         with Exit -> ());
        !result
      end)

let bucket_counts h =
  with_histogram h (fun () ->
      let acc = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.buckets.(i) > 0 then acc := (upper_bound i, h.buckets.(i)) :: !acc
      done;
      !acc)

let snapshot () =
  let cs, hs =
    with_registry (fun () ->
        ( Hashtbl.fold (fun _ c acc -> c :: acc) counters [],
          Hashtbl.fold (fun _ h acc -> h :: acc) histograms [] ))
  in
  let cs = List.sort (fun a b -> compare a.c_name b.c_name) cs in
  let hs = List.sort (fun a b -> compare a.h_name b.h_name) hs in
  let counter_fields =
    List.map (fun c -> (c.c_name, Json.Number (float_of_int (value c)))) cs
  in
  let histogram_fields =
    List.map
      (fun h ->
        ( h.h_name,
          Json.Object
            [
              ("count", Json.Number (float_of_int (count h)));
              ("sum", Json.Number (sum h));
              ("p50", Json.Number (quantile h 0.50));
              ("p90", Json.Number (quantile h 0.90));
              ("p99", Json.Number (quantile h 0.99));
            ] ))
      hs
  in
  Json.Object
    [
      ("counters", Json.Object counter_fields);
      ("histograms", Json.Object histogram_fields);
    ]

let reset () =
  with_registry (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
      Hashtbl.iter
        (fun _ h ->
          Mutex.lock h.lock;
          Array.fill h.buckets 0 n_buckets 0;
          h.h_count <- 0;
          h.h_sum <- 0.0;
          Mutex.unlock h.lock)
        histograms)
