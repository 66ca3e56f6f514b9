(** Bootstrap confidence intervals for reported means.

    The paper reports point estimates; an open-source release should say
    how stable they are. [mean_ci] resamples the per-block errors with
    replacement and returns the percentile interval of the resampled
    means. Deterministic in the seed. *)

type interval = {
  mean : float;
  lo : float;
  hi : float;
  resamples : int;
}

let mean_ci ?(confidence = 0.95) ?(resamples = 1000) ?(seed = 0xB007L)
    (xs : float list) : interval =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then { mean = nan; lo = nan; hi = nan; resamples }
  else begin
    let rng = Rng.create seed in
    let mean_of_sample () =
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. arr.(Rng.int rng n)
      done;
      !sum /. float_of_int n
    in
    let means = Array.init resamples (fun _ -> mean_of_sample ()) in
    Array.sort compare means;
    let q p =
      let idx = int_of_float (p *. float_of_int (resamples - 1)) in
      means.(max 0 (min (resamples - 1) idx))
    in
    let alpha = (1.0 -. confidence) /. 2.0 in
    {
      mean = Error.average xs;
      lo = q alpha;
      hi = q (1.0 -. alpha);
      resamples;
    }
  end
