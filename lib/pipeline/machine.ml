(** A simulated machine: one microarchitecture core plus its L1D, L1I
    and unified L2 caches. Cache contents persist across simulations
    until [reset], mirroring warm-up behaviour on real hardware. The
    machine also owns the simulator's scratch state ({!Core.Scratch}),
    so repeated [simulate] calls perform no per-simulation
    machine-state allocation. *)

type t = {
  descriptor : Uarch.Descriptor.t;
  l1d : Memsim.Cache.t;
  l1i : Memsim.Cache.t;
  l2 : Memsim.Cache.t;  (** unified second level *)
  scratch : Core.Scratch.t;
}

(* Always-on throughput accounting: simulated blocks and cumulative
   in-simulator nanoseconds. Two plain atomic counters per run — cheap
   enough to never gate, and the source of the bench summary's
   blocks-per-second figure. *)
let m_blocks = Telemetry.Metrics.counter "pipeline.blocks"
let m_sim_ns = Telemetry.Metrics.counter "pipeline.sim_ns"

(* Every descriptor's machine gets the same caches, so the L1
   residency verdict ([fits_l1]) depends on the step log alone; its
   scratch L1s are made here too. *)
let l1 () = Memsim.Cache.l1_default ()

let create (descriptor : Uarch.Descriptor.t) =
  {
    descriptor;
    l1d = l1 ();
    l1i = l1 ();
    l2 = Memsim.Cache.create ~size_bytes:(256 * 1024) ~ways:8 ~line_bytes:64;
    scratch = Core.Scratch.create descriptor;
  }

let reset t =
  Memsim.Cache.flush t.l1d;
  Memsim.Cache.flush t.l1i;
  Memsim.Cache.flush t.l2

(* [f ()], its wall time added to [pipeline.sim_ns]. *)
let timed f =
  let t0 = Telemetry.Trace.now_ns () in
  let r = f () in
  Telemetry.Metrics.add m_sim_ns
    (Int64.to_int (Int64.sub (Telemetry.Trace.now_ns ()) t0));
  r

(* Build the trace of [steps] for this machine's descriptor. Its time
   counts towards [pipeline.sim_ns]: a simulated block's cost includes
   the trace it runs on, built once however often it is simulated. *)
let trace t (steps : Xsem.Step_log.t) : Trace.t =
  timed (fun () -> Trace.of_steps t.descriptor steps)

(* Simulate the timing of one completed architectural execution, given
   as its trace. The telemetry span wraps the core cycle loop. *)
let simulate_on ?record_schedule ?prefix ~resident t (trace : Trace.t) : Core.result =
  Telemetry.Trace.span "pipeline.simulate"
    ~attrs:(fun (r : Core.result) ->
      let c = r.counters in
      let ports =
        String.concat "," (Array.to_list (Array.map string_of_int c.port_cycles))
      in
      Telemetry.Trace.
        [
          ("uarch", Str t.descriptor.short);
          ("cycles", Int r.cycles);
          ("instructions", Int c.instructions);
          ("uops", Int c.uops);
          ("port_cycles", Str ports);
          ("frontend_stall_cycles", Int c.frontend_stall_cycles);
          ("rob_stall_cycles", Int c.rob_stall_cycles);
          ("port_contention_cycles", Int c.port_contention_cycles);
        ])
    (fun () ->
      let r =
        timed (fun () ->
            Core.simulate ?record_schedule ~resident ?prefix ~scratch:t.scratch t.descriptor
              ~l1d:t.l1d ~l1i:t.l1i ~l2:t.l2 trace)
      in
      Telemetry.Metrics.incr m_blocks;
      r)

let simulate ?record_schedule t trace = simulate_on ?record_schedule ~resident:false t trace

(* Per domain, the L1D and L1I the verdict walks, made on first use. *)
let verdict_l1s = Domain.DLS.new_key (fun () -> (l1 (), l1 ()))

let fits_l1 (steps : Xsem.Step_log.t) =
  timed (fun () ->
      let l1d, l1i = Domain.DLS.get verdict_l1s in
      Core.fits_l1 ~l1d ~l1i steps)

(* A measure point: the discarded warm-up simulation from flushed
   caches, then the timed run. When the point's log fits L1, the warm-up
   would leave every line the timed run touches resident, so it is
   counted but not simulated, and the timed run skips the caches; only
   that run takes [prefix]. *)
let measure ?record_schedule ?prefix t ~fits_l1 (trace : Trace.t) =
  if fits_l1 then begin
    Telemetry.Metrics.incr m_blocks;
    simulate_on ?record_schedule ?prefix ~resident:true t trace
  end
  else begin
    reset t;
    ignore (simulate t trace);
    simulate ?record_schedule t trace
  end

(* A measure point read off an earlier run's prefix counts the two
   blocks that [measure] counts. *)
let prefix_point (r : Core.result) =
  if Option.is_some r.prefix then Telemetry.Metrics.add m_blocks 2;
  r.prefix

(* Per-domain machine cache, keyed by descriptor physical identity. The
   shipped descriptors are module-level constants, so this holds at most
   a few entries per domain; domains never share a machine, keeping the
   mutable scratch state race-free. *)
let dls_cache : (Uarch.Descriptor.t * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let for_descriptor (d : Uarch.Descriptor.t) =
  let cache = Domain.DLS.get dls_cache in
  match List.assq_opt d !cache with
  | Some m -> m
  | None ->
    let m = create d in
    cache := (d, m) :: !cache;
    m
