(** Cycle-level out-of-order core model.

    The simulator replays a dynamic instruction trace against the
    microarchitecture's resources: a fused-domain front end with an L1I
    cache, register renaming with zero-idiom and move elimination, a
    port-constrained scheduler with per-port pipelined execution (the
    divider is not pipelined), load/store address disambiguation with
    store-to-load forwarding, a reorder buffer, and in-order retirement.

    The model is timing-directed: architectural values (addresses, the
    division fast path, subnormal operands) come from the pre-recorded
    trace, so the timing pass itself is deterministic and cheap. The
    trace is statics per block position over the executor's step log,
    and the loop reads each step's accesses and events from the log's
    arrays in place (the step readers below).

    The cycle loop is allocation-free: uops are consumed as int-packed
    codes ({!Uarch.Flat}), machine state lives in mutable scratch arrays
    reused across simulated blocks ({!Scratch}), the ROB and retire rings
    wrap by comparison, the store-forwarding table is an epoch-stamped
    open-addressed int table rather than a fresh [Hashtbl] per
    simulation, the port schedule is a bitmap of occupied cycles per
    port, and cache lookups (shift and mask) and port claims allocate
    nothing. A call allocates a constant (counters, result, loop
    closures), whatever the trace length; test/test_batch.ml pins
    this.

    The loop and the verdict's walk run at native-int speed: every
    comparison is at type int ([Int.max], never the polymorphic
    [Stdlib.max]), and a step read is a load from the log's arrays, not
    a call into another module, which the dev profile's [-opaque] would
    turn into a generic application. bench/poly_census.sh checks the
    first in the built objects.

    The caches are the only state that outlives a call, and they are
    touched in trace order whatever the timing, so a measure point's
    warm-up is a simulation whose result is discarded: only the caches
    it leaves matter. {!fits_l1} decides, once per step log, whether
    that warm-up would leave every line the timed run touches in L1;
    when it would, [simulate ~resident:true] skips the caches, since
    every lookup would hit. *)

open Uarch

type schedule_entry = {
  inst_index : int;
  static_index : int;
  uop : Uop.t;
  port : int;  (** -1 for eliminated uops *)
  dispatch : int;
  complete : int;
}

type result = {
  cycles : int;
  counters : Counters.t;
  schedule : schedule_entry list;  (** only populated when requested *)
}

(* Dependence-root index used for RFLAGS. *)
let flags_root = X86.Reg.num_roots
let n_roots = X86.Reg.num_roots + 1

(* Store-to-load forwarding table: 8-byte chunk index -> data-ready
   time. Open-addressed with linear probing and an epoch stamp per slot,
   so clearing between simulations is O(1). Chunk indices are physical
   addresses shifted right by 3, so they always fit a native int. *)
module Fwd = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable stamps : int array;
    mutable mask : int;  (** capacity - 1; capacity is a power of two *)
    mutable live : int;
    mutable epoch : int;
  }

  let initial_capacity = 256

  let create () =
    {
      keys = Array.make initial_capacity 0;
      vals = Array.make initial_capacity 0;
      stamps = Array.make initial_capacity (-1);
      mask = initial_capacity - 1;
      live = 0;
      epoch = 0;
    }

  let reset t =
    t.epoch <- t.epoch + 1;
    t.live <- 0

  let hash k = (k * 0x9E3779B1) lxor (k lsr 16)

  (* Slot index of [k], or [-insert_position - 1] when absent. *)
  let rec probe_from t k i =
    if t.stamps.(i) <> t.epoch then -i - 1
    else if t.keys.(i) = k then i
    else probe_from t k ((i + 1) land t.mask)

  let probe t k = probe_from t k (hash k land t.mask)

  (* Ready times are always >= 1, so 0 doubles as "no pending store". *)
  let find t k =
    let i = probe t k in
    if i < 0 then 0 else t.vals.(i)

  let grow t =
    let old_keys = t.keys and old_vals = t.vals and old_stamps = t.stamps in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0;
    t.stamps <- Array.make cap (-1);
    t.mask <- cap - 1;
    for i = 0 to Array.length old_keys - 1 do
      if old_stamps.(i) = t.epoch then begin
        let j = -probe t old_keys.(i) - 1 in
        t.keys.(j) <- old_keys.(i);
        t.vals.(j) <- old_vals.(i);
        t.stamps.(j) <- t.epoch
      end
    done

  let set t k v =
    let i = probe t k in
    if i >= 0 then t.vals.(i) <- v
    else begin
      if 2 * (t.live + 1) > t.mask + 1 then grow t;
      let i = -probe t k - 1 in
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.stamps.(i) <- t.epoch;
      t.live <- t.live + 1
    end
end

(** Reusable per-machine simulation state: every array the cycle loop
    touches, allocated once per machine and reset in O(state) between
    blocks instead of reallocated. *)
module Scratch = struct
  type t = {
    n_ports : int;
    rob_size : int;
    retire_width : int;
    reg_ready : int array;
    ports : Port_schedule.t;
    rob : int array;  (** ring of retire times, capacity [rob_size + 1] *)
    mutable rob_head : int;
    mutable rob_len : int;
    retire_ring : int array;
    fwd : Fwd.t;
  }

  let create (d : Descriptor.t) =
    {
      n_ports = d.n_ports;
      rob_size = d.rob_size;
      retire_width = d.retire_width;
      reg_ready = Array.make n_roots 0;
      ports = Port_schedule.create ~n_ports:d.n_ports;
      rob = Array.make (d.rob_size + 1) 0;
      rob_head = 0;
      rob_len = 0;
      retire_ring = Array.make d.retire_width 0;
      fwd = Fwd.create ();
    }

  let reset t =
    Array.fill t.reg_ready 0 n_roots 0;
    Port_schedule.reset t.ports;
    t.rob_head <- 0;
    t.rob_len <- 0;
    Array.fill t.retire_ring 0 t.retire_width 0;
    Fwd.reset t.fwd

  let fits t (d : Descriptor.t) =
    t.n_ports = d.n_ports && t.rob_size = d.rob_size
    && t.retire_width = d.retire_width
end

(* Cache accesses. [fetch] and [data_access] return the L1 and L2 miss
   counts packed into one int, so none of the helpers allocates. *)

let l2_shift = 16
let l1_misses packed = packed land ((1 lsl l2_shift) - 1)
let l2_misses packed = packed lsr l2_shift

(* The 64-byte L1I line that holds code byte [addr]. *)
let[@inline] code_line addr = addr lsr 6

(* Fetch the code lines of [len] instruction bytes at [code_addr]
   through L1I. A line that misses refills from the unified L2, tagged
   into a distinct address range so that it does not alias data lines. *)
let fetch ~l1i ~l2 ~code_addr ~len =
  let packed = ref 0 in
  for line = code_line code_addr to code_line (code_addr + len - 1) do
    if not (Memsim.Cache.access_line l1i line) then
      packed :=
        !packed + 1
        + if Memsim.Cache.access_line l2 (0x4000000 + line) then 0 else 1 lsl l2_shift
  done;
  !packed

(* [size] bytes at physical [addr] through L1D, and through the unified
   L2 when L1D misses. *)
let data_access ~l1d ~l2 ~addr ~size =
  let misses = Memsim.Cache.access l1d ~addr ~size in
  if misses = 0 then 0 else misses + (Memsim.Cache.access l2 ~addr ~size lsl l2_shift)

(* --- reading a step ------------------------------------------------------

   What the loop and the verdict read of step [i], straight from the step
   log's arrays. Its [k]-th load uop takes the step's [k]-th load access
   and its [k]-th store-data uop the [k]-th store access; a uop past the
   last one reads 8 bytes at address 0 (access -1). Access indices range
   over the whole log. *)

module L = Xsem.Step_log

let subnormal_bit = L.bit L.Subnormal
let slow_path_bit = L.bit L.Div_slow_path

(* Step [i]'s accesses are [first_access log i] to
   [first_access log (i + 1) - 1]. *)
let[@inline] first_access (log : L.t) i = log.first.(i)

(* The first store (when [store]) or load among accesses [a] to
   [limit - 1], or -1 when there is none. *)
let rec next_access (log : L.t) ~store a limit =
  if a >= limit then -1
  else if Bool.equal log.store.(a) store then a
  else next_access log ~store (a + 1) limit

(* Physical address, virtual address and size of access [j]; for
   [j = -1], the 8 bytes at address 0. *)
let[@inline] paddr (log : L.t) j = if j < 0 then 0 else log.paddr.(j)
let[@inline] vaddr (log : L.t) j = if j < 0 then 0 else log.vaddr.(j)
let[@inline] size (log : L.t) j = if j < 0 then 8 else log.size.(j)

(* Did step [i]'s FP operation touch a subnormal? *)
let[@inline] subnormal (log : L.t) i = log.events.(i) land subnormal_bit <> 0

(* Step [i]'s effective div/idiv latency given its execution path (the
   slow path for a full-width dividend); 0 for every other
   instruction. *)
let div_latency (trace : Trace.t) i =
  let pos = i mod Array.length trace.statics in
  if not trace.statics.(pos).s_is_int_div then 0
  else if trace.log.events.(i) land slow_path_bit <> 0 then trace.slow_div_lat
  else trace.pos_div_lat.(pos)

(* With [resident], every fetch and data access is taken to hit L1, as
   it does after a warm-up simulation of a log for which {!fits_l1}
   holds: the caches are not consulted, and [l1d] gives only the line
   size that [crosses_line] reads. *)
let simulate ?(record_schedule = false) ?(resident = false) ?scratch (d : Descriptor.t)
    ~(l1d : Memsim.Cache.t) ~(l1i : Memsim.Cache.t) ~(l2 : Memsim.Cache.t)
    (trace : Trace.t) : result =
  let s =
    match scratch with
    | Some s when Scratch.fits s d ->
      Scratch.reset s;
      s
    | _ -> Scratch.create d
  in
  let c = Counters.create () in
  c.port_cycles <- Array.make d.n_ports 0;
  let reg_ready = s.reg_ready in
  let ports = s.ports in
  let schedule = ref [] in
  (* Front end state: fused-domain slots. *)
  let frontend_cycle = ref 0 in
  let slots_this_cycle = ref 0 in
  (* ROB: retire times of allocated entries, bounded by rob_size. *)
  let rob_cap = s.rob_size + 1 in
  let rob_pop () =
    let v = s.rob.(s.rob_head) in
    let head = s.rob_head + 1 in
    s.rob_head <- (if head = rob_cap then 0 else head);
    s.rob_len <- s.rob_len - 1;
    v
  in
  let rob_push v =
    let i = s.rob_head + s.rob_len in
    s.rob.(if i >= rob_cap then i - rob_cap else i) <- v;
    s.rob_len <- s.rob_len + 1
  in
  (* Retirement: ring of the last [retire_width] retire times. *)
  let retire_ring = s.retire_ring in
  let retire_pos = ref 0 in
  let last_retire = ref 0 in
  (* Store-to-load forwarding over 8-byte chunks. *)
  let fwd_tbl = s.fwd in
  let forwarding_ready addr size =
    let first = addr lsr 3 and last = (addr + Int.max 1 size - 1) lsr 3 in
    let t = ref 0 in
    for chunk = first to last do
      let ready = Fwd.find fwd_tbl chunk in
      if ready > !t then t := ready
    done;
    !t
  in
  let record_store addr size ready =
    let first = addr lsr 3 and last = (addr + Int.max 1 size - 1) lsr 3 in
    for chunk = first to last do
      Fwd.set fwd_tbl chunk ready
    done
  in
  (* Allocate [n] fused-domain rename slots; returns cycle of last slot. *)
  let rename_slots n =
    let r = ref 0 in
    for _ = 1 to Int.max 1 n do
      if !slots_this_cycle >= d.rename_width then begin
        incr frontend_cycle;
        slots_this_cycle := 0
      end;
      incr slots_this_cycle;
      r := !frontend_cycle
    done;
    !r
  in
  let ready_of_roots roots =
    let t = ref 0 in
    for i = 0 to Array.length roots - 1 do
      let v = reg_ready.(roots.(i)) in
      if v > !t then t := v
    done;
    !t
  in
  let finish_time = ref 0 in
  (* Step [idx] runs block position [pos] of the copy at [copy_addr]. *)
  let n = Array.length trace.statics and log = trace.log in
  let pos = ref 0 and copy_addr = ref 0 in
  for idx = 0 to trace.steps - 1 do
    let st = trace.statics.(!pos) in
    (* --- front end: instruction fetch through the L1I cache --- *)
    let fetched =
      if resident then 0
      else fetch ~l1i ~l2 ~code_addr:(!copy_addr + trace.offsets.(!pos)) ~len:st.s_code_len
    in
    if fetched <> 0 then begin
      let l1i_m = l1_misses fetched and l2_m = l2_misses fetched in
      c.l1i_misses <- c.l1i_misses + l1i_m;
      c.l2_misses <- c.l2_misses + l2_m;
      let stall = (l1i_m * d.icache_miss_penalty) + (l2_m * d.l2_miss_penalty) in
      c.frontend_stall_cycles <- c.frontend_stall_cycles + stall;
      frontend_cycle := !frontend_cycle + stall;
      slots_this_cycle := 0
    end;
    (* --- rename --- *)
    let renamed_at = rename_slots st.s_fused_slots in
    (* ROB occupancy: wait for the oldest entry to retire. *)
    for _ = 1 to st.s_fused_slots do
      if s.rob_len >= d.rob_size then begin
        let oldest = rob_pop () in
        if oldest > !frontend_cycle then begin
          c.rob_stall_cycles <- c.rob_stall_cycles + (oldest - !frontend_cycle);
          frontend_cycle := oldest;
          slots_this_cycle := 0
        end
      end
    done;
    c.instructions <- c.instructions + 1;
    c.uops <- c.uops + Int.max 1 st.s_n_uops;
    let data_ready = ready_of_roots st.s_reads in
    let data_ready =
      if st.s_reads_flags then Int.max data_ready reg_ready.(flags_root)
      else data_ready
    in
    let addr_ready = ready_of_roots st.s_addr_roots in
    if st.s_eliminated then begin
      (* Handled at rename: result ready immediately. For zero idioms
         the result does not depend on sources at all. *)
      let ready =
        if st.s_zero_idiom then renamed_at else Int.max renamed_at data_ready
      in
      let writes = st.s_writes in
      for i = 0 to Array.length writes - 1 do
        reg_ready.(writes.(i)) <- ready
      done;
      if st.s_writes_flags then reg_ready.(flags_root) <- ready;
      if record_schedule then
        schedule :=
          {
            inst_index = idx;
            static_index = idx;
            uop = Uop.exec Port.empty;
            port = -1;
            dispatch = renamed_at;
            complete = ready;
          }
          :: !schedule;
      rob_push (Int.max ready renamed_at);
      if Int.max ready renamed_at > !finish_time then
        finish_time := Int.max ready renamed_at
    end
    else begin
      let earliest = renamed_at + 1 in
      (* The next load and store access to hand out, and the end of the
         step's accesses. *)
      let load_at = ref (first_access log idx) in
      let store_at = ref !load_at and limit = first_access log (idx + 1) in
      let subnormal = subnormal log idx in
      let last_load_complete = ref 0 in
      let last_exec_complete = ref 0 in
      let prev_exec_complete = ref 0 in
      let inst_complete = ref renamed_at in
      let subnormal_applied = ref false in
      let codes = st.s_codes in
      for k = 0 to Array.length codes - 1 do
        let code = codes.(k) in
        let kind = Flat.code_kind code in
        let ulat = Flat.code_latency code in
        let ready, latency_extra, busy =
          match kind with
          | 1 (* Load *) ->
            let j = next_access log ~store:false !load_at limit in
            if j >= 0 then load_at := j + 1;
            let paddr = paddr log j
            and size = size log j
            and vaddr = vaddr log j in
            let packed = if resident then 0 else data_access ~l1d ~l2 ~addr:paddr ~size in
            let misses = l1_misses packed and l2_m = l2_misses packed in
            c.l1d_read_misses <- c.l1d_read_misses + misses;
            c.l2_misses <- c.l2_misses + l2_m;
            let split = Memsim.Cache.crosses_line l1d ~addr:vaddr ~size in
            if split then c.misaligned_mem_refs <- c.misaligned_mem_refs + 1;
            let fwd = forwarding_ready paddr size in
            ( Int.max (Int.max addr_ready fwd) earliest,
              (misses * d.l1d_miss_penalty)
              + (l2_m * d.l2_miss_penalty)
              + (if split then d.misaligned_extra_cycles else 0),
              1 )
          | 2 (* Store_addr *) -> (Int.max addr_ready earliest, 0, 1)
          | 3 (* Store_data *) ->
            let src =
              if !last_exec_complete > 0 then !last_exec_complete
              else Int.max data_ready !last_load_complete
            in
            (Int.max src earliest, 0, 1)
          | _ (* Exec *) ->
            let chain =
              Int.max data_ready (Int.max !last_load_complete !prev_exec_complete)
            in
            let busy =
              if st.s_is_divider then
                let lat = if st.s_is_int_div then div_latency trace idx else ulat in
                Int.max 1 (lat - 1)
              else 1
            in
            (Int.max chain earliest, 0, busy)
        in
        (* Dispatch on the candidate port with the earliest free issue
           slot (out-of-order backfill included); ties resolve to the
           lowest-numbered port, as the mask is scanned ascending. *)
        let best_port = ref 0 and best_time = ref max_int in
        let m = ref (Flat.code_mask code) and pn = ref 0 in
        while !m <> 0 do
          if !m land 1 <> 0 then begin
            let t = Port_schedule.peek ports ~port:!pn ~ready in
            if t < !best_time then begin
              best_time := t;
              best_port := !pn
            end
          end;
          incr pn;
          m := !m lsr 1
        done;
        let port = !best_port in
        let dispatch =
          Port_schedule.claim ports ~port ~ready:!best_time ~busy
        in
        c.port_cycles.(port) <- c.port_cycles.(port) + busy;
        if dispatch > ready then
          c.port_contention_cycles <-
            c.port_contention_cycles + (dispatch - ready);
        let latency =
          if kind = 0 && st.s_is_int_div then div_latency trace idx else ulat
        in
        let complete = dispatch + latency + latency_extra in
        let complete =
          if subnormal && (not !subnormal_applied) && kind = 0 then begin
            subnormal_applied := true;
            c.subnormal_assists <- c.subnormal_assists + 1;
            complete + d.subnormal_assist_cycles
          end
          else complete
        in
        (match kind with
        | 1 (* Load *) ->
          last_load_complete := Int.max !last_load_complete complete
        | 0 (* Exec *) ->
          prev_exec_complete := complete;
          last_exec_complete := Int.max !last_exec_complete complete
        | 3 (* Store_data *) ->
          let j = next_access log ~store:true !store_at limit in
          if j >= 0 then store_at := j + 1;
          let paddr = paddr log j
          and size = size log j
          and vaddr = vaddr log j in
          let packed = if resident then 0 else data_access ~l1d ~l2 ~addr:paddr ~size in
          c.l1d_write_misses <- c.l1d_write_misses + l1_misses packed;
          c.l2_misses <- c.l2_misses + l2_misses packed;
          if Memsim.Cache.crosses_line l1d ~addr:vaddr ~size then
            c.misaligned_mem_refs <- c.misaligned_mem_refs + 1;
          record_store paddr size (complete + 1)
        | _ (* Store_addr *) -> ());
        if complete > !inst_complete then inst_complete := complete;
        if record_schedule then
          schedule :=
            {
              inst_index = idx;
              static_index = idx;
              uop = st.s_uops.(k);
              port;
              dispatch;
              complete;
            }
            :: !schedule
      done;
      (* A microcode assist flushes the front end. *)
      if subnormal then begin
        frontend_cycle := Int.max !frontend_cycle !inst_complete;
        slots_this_cycle := 0
      end;
      (* Architectural results become visible at instruction completion:
         the producing uop is the last exec uop, or the load for pure
         loads. *)
      let result_time =
        if !last_exec_complete > 0 then !last_exec_complete
        else if !last_load_complete > 0 then !last_load_complete
        else renamed_at
      in
      let writes = st.s_writes in
      for i = 0 to Array.length writes - 1 do
        reg_ready.(writes.(i)) <- result_time
      done;
      if st.s_writes_flags then reg_ready.(flags_root) <- result_time;
      (* In-order retirement. *)
      let ready_to_retire = Int.max !inst_complete !last_retire in
      let width_limited = retire_ring.(!retire_pos) + 1 in
      let retire_at = Int.max ready_to_retire width_limited in
      retire_ring.(!retire_pos) <- retire_at;
      let next = !retire_pos + 1 in
      retire_pos := if next = d.retire_width then 0 else next;
      last_retire := retire_at;
      rob_push retire_at;
      if retire_at > !finish_time then finish_time := retire_at
    end;
    if !pos + 1 = n then begin
      pos := 0;
      copy_addr := !copy_addr + trace.block_bytes
    end
    else incr pos
  done;
  c.core_cycles <- !finish_time;
  { cycles = !finish_time; counters = c; schedule = List.rev !schedule }

(* The L1 residency verdict on [log]: do the lines that a simulation of
   [log]'s trace could touch under any descriptor fit [l1i] and [l1d]
   with no eviction? Walks a superset of those lines, from flushed
   caches:
   - every code line of the steps' copies, laid out as [Trace.of_steps]
     lays them out, by encoded length, which no descriptor changes;
   - every recorded access, whichever uop takes it;
   - the 8 bytes at address 0 that a uop past its step's last access
     reads.
   True LRU from a flush evicts only once one set has received more
   distinct lines than it has ways, whatever the order. So if this walk
   evicts nothing, neither does a warm-up simulation, which touches a
   subset of its lines from flushed caches, every line it touches stays
   in L1, and the timed run that follows hits L1 on every fetch and
   access and never reaches L2. L2 is not walked: its evictions cannot
   reach the timed run. *)
let fits_l1 ~(l1d : Memsim.Cache.t) ~(l1i : Memsim.Cache.t) (log : L.t) =
  Memsim.Cache.flush l1d;
  Memsim.Cache.flush l1i;
  let n = Array.length log.block in
  if n > 0 then begin
    (* The steps' code: [steps / n] whole copies, then the first
       [steps mod n] instructions of the next. *)
    let block_bytes = ref 0 and partial = ref 0 in
    for k = 0 to n - 1 do
      let len = X86.Encoder.encoded_length log.block.(k) in
      if k < log.steps mod n then partial := !partial + len;
      block_bytes := !block_bytes + len
    done;
    let code_end = (log.steps / n * !block_bytes) + !partial in
    if code_end > 0 then
      for line = 0 to code_line (code_end - 1) do
        ignore (Memsim.Cache.access_line l1i line)
      done
  end;
  for j = 0 to first_access log log.steps - 1 do
    ignore (Memsim.Cache.access l1d ~addr:(paddr log j) ~size:(size log j))
  done;
  ignore (Memsim.Cache.access l1d ~addr:(paddr log (-1)) ~size:(size log (-1)));
  Memsim.Cache.evictions l1i = 0 && Memsim.Cache.evictions l1d = 0
