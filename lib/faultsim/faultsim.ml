(* See faultsim.mli for the contract.

   Determinism: every decision derives from one SplitMix64 stream
   seeded by (config seed XOR FNV-1a of "fingerprint\x00attempt\x000").
   The trailing 0 is a fixed trial slot, kept so that crash decisions
   match every earlier release of this module. *)

type config = { crash : float; seed : int64 }

let none = { crash = 0.0; seed = 0L }

let is_none c = c.crash = 0.0

(* The shortest of %.15g, %.16g and %.17g that parses back to the same
   float (%.17g always does), so to_string stays canonical and
   round-trips. *)
let float_to_string f =
  let render p = Printf.sprintf "%.*g" p f in
  let exact s = float_of_string s = f in
  match List.find_opt exact [ render 15; render 16 ] with
  | Some s -> s
  | None -> render 17

let to_string c =
  Printf.sprintf "crash=%s,seed=%Ld" (float_to_string c.crash) c.seed

let parse spec =
  let spec = String.trim spec in
  if spec = "" || spec = "none" then Ok none
  else
    let parts = String.split_on_char ',' spec in
    let rec fold acc = function
      | [] -> Ok acc
      | part :: rest -> (
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" part)
        | Some i -> (
          let key = String.trim (String.sub part 0 i) in
          let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
          match key with
          | "crash" -> (
            match float_of_string_opt v with
            | Some r when r >= 0.0 && r <= 1.0 ->
              fold { acc with crash = r } rest
            | Some _ ->
              Error (Printf.sprintf "crash=%s: rate must be in [0, 1]" v)
            | None -> Error (Printf.sprintf "crash=%s: not a number" v))
          | "seed" -> (
            match Int64.of_string_opt v with
            | Some s -> fold { acc with seed = s } rest
            | None -> Error (Printf.sprintf "seed=%s: not an integer" v))
          | _ ->
            Error
              (Printf.sprintf "unknown key %S (expected crash or seed)" key)))
    in
    fold none parts

let env_result () =
  match Sys.getenv_opt "BHIVE_FAULTS" with
  | None -> Ok none
  | Some s -> (
    match parse s with
    | Ok c -> Ok c
    | Error msg -> Error (Printf.sprintf "invalid BHIVE_FAULTS=%S: %s" s msg))

let of_env () =
  match env_result () with Ok c -> c | Error msg -> failwith msg

let crashes c ~fingerprint ~attempt =
  (not (is_none c))
  &&
  let key =
    Bstats.Rng.seed_of_string
      (Printf.sprintf "%s\x00%d\x000" fingerprint attempt)
  in
  Bstats.Rng.bernoulli (Bstats.Rng.create (Int64.logxor c.seed key)) c.crash
