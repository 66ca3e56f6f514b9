(** Small descriptive-statistics helpers for report tables. *)

type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let of_list xs =
  let n = List.length xs in
  if n = 0 then { n = 0; mean = nan; stddev = nan; min = nan; max = nan; median = nan }
  else begin
    let mean = Error.average xs in
    let var =
      Error.average (List.map (fun x -> (x -. mean) *. (x -. mean)) xs)
    in
    {
      n;
      mean;
      stddev = sqrt var;
      min = List.fold_left min infinity xs;
      max = List.fold_left max neg_infinity xs;
      median = Error.median xs;
    }
  end

(* Plain-text horizontal bar for terminal "figures". *)
let bar ?(width = 40) ~max_value value =
  let filled =
    if max_value <= 0.0 then 0
    else
      int_of_float (Float.round (float_of_int width *. value /. max_value))
  in
  let filled = max 0 (min width filled) in
  String.make filled '#' ^ String.make (width - filled) ' '
