(* List-based references for the step log and the flat trace: the
   executor that concatenated [unroll] copies of a block and kept a
   record per step, and the trace builder that mapped those records to
   one record per dynamic instruction, looking static info up in a
   structural [Hashtbl] and partitioning each step's access list. The
   flat code must agree with them on every step. *)

open X86
module L = Xsem.Step_log

type access = { vaddr : int; paddr : int; size : int; is_store : bool }

type step = {
  index : int;
  inst : Inst.t;
  accesses : access list;  (** in program order *)
  events : L.event list;
}

type run_result =
  | Completed of step list
  | Faulted of { steps : step list; fault : Memsim.Fault.t; at : int }

let all_events = L.[ Subnormal; Div_fast_path; Div_slow_path; Div_by_zero ]

(* The committed steps of [log], one record each. *)
let steps_of_log (log : L.t) =
  List.init log.steps (fun i ->
      {
        index = i;
        inst = L.inst log i;
        accesses =
          List.init
            (log.first.(i + 1) - log.first.(i))
            (fun k ->
              let a = log.first.(i) + k in
              {
                vaddr = log.vaddr.(a);
                paddr = log.paddr.(a);
                size = log.size.(a);
                is_store = log.store.(a);
              });
        events = List.filter (L.has_event log i) all_events;
      })

let of_run = function
  | Xsem.Executor.Completed log -> Completed (steps_of_log log)
  | Xsem.Executor.Faulted { steps; fault; at } ->
    Faulted { steps = steps_of_log steps; fault; at }

(* Execute [unroll] concatenated copies of [block], each instruction
   alone into a log of its own, advancing RIP by each dynamic
   instruction's encoded length. *)
let run (st : Xsem.Machine_state.t) mmu block ~unroll =
  let rec go idx acc = function
    | [] -> Completed (List.rev acc)
    | inst :: rest -> (
      st.rip <- Int64.add st.rip (Int64.of_int (Encoder.encoded_length inst));
      let log = L.create ~steps:1 in
      L.start log [| inst |];
      match Xsem.Semantics.exec (Xsem.Semantics.context st mmu log) inst with
      | () ->
        L.commit log;
        let step = { (List.hd (steps_of_log log)) with index = idx } in
        go (idx + 1) (step :: acc) rest
      | exception Memsim.Fault.Fault fault ->
        Faulted { steps = List.rev acc; fault; at = idx })
  in
  go 0 [] (List.concat (List.init unroll (fun _ -> block)))

type dyn_inst = {
  static : Pipeline.Trace.static_info;
  static_index : int;
  code_addr : int;
  loads : (int * int) array;  (** physical address and size per load *)
  stores : (int * int) array;
  load_vaddrs : int array;
  store_vaddrs : int array;
  subnormal : bool;
  div_lat : int;
}

(* The list-based trace builder. *)
let of_steps (d : Uarch.Descriptor.t) (steps : step list) : dyn_inst list =
  let flat = Uarch.Descriptor.flat d in
  let statics = Hashtbl.create 64 in
  let static_of inst =
    match Hashtbl.find_opt statics inst with
    | Some s -> s
    | None ->
      let s = Pipeline.Trace.build_static flat inst in
      Hashtbl.add statics inst s;
      s
  in
  let offset = ref 0 in
  List.map
    (fun s ->
      let st = static_of s.inst in
      let addr = !offset in
      offset := !offset + st.s_code_len;
      let loads, stores = List.partition (fun a -> not a.is_store) s.accesses in
      let div_lat =
        if not st.s_is_int_div then 0
        else if List.mem L.Div_slow_path s.events then flat.Uarch.Flat.div64_latency
        else if Width.equal s.inst.width Width.Q then flat.Uarch.Flat.divq_latency
        else flat.Uarch.Flat.div32_latency
      in
      {
        static = st;
        static_index = s.index;
        code_addr = addr;
        loads = Array.of_list (List.map (fun a -> (a.paddr, a.size)) loads);
        stores = Array.of_list (List.map (fun a -> (a.paddr, a.size)) stores);
        load_vaddrs = Array.of_list (List.map (fun a -> a.vaddr) loads);
        store_vaddrs = Array.of_list (List.map (fun a -> a.vaddr) stores);
        subnormal = List.mem L.Subnormal s.events;
        div_lat;
      })
    steps
