(* Whole-execution simulation entry points, which only tests call: the
   profiler builds one trace per measure point and simulates it itself
   ([Machine.measure]). *)

(* [Machine.trace] followed by [Machine.simulate]. *)
let run ?record_schedule m steps =
  Pipeline.Machine.simulate ?record_schedule m (Pipeline.Machine.trace m steps)

(* Simulate many independent blocks under the calling domain's reused
   machine for [d], each from cold caches: [Machine.reset] restores a
   newly created machine's cache state and the core's scratch resets
   by epoch bump, so results are byte-identical to per-block
   [Machine.create] + [run]. *)
let simulate_batch ?record_schedule (d : Uarch.Descriptor.t) steps_list =
  let m = Pipeline.Machine.for_descriptor d in
  List.map
    (fun steps ->
      Pipeline.Machine.reset m;
      run ?record_schedule m steps)
    steps_list
