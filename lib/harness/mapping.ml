(** The monitor/measure page-mapping algorithm (paper, Figure 2).

    The measuring "process" executes the unrolled basic block from a
    freshly initialised machine state; the monitor intercepts each
    segmentation fault, validates the faulting address, maps the page
    (onto the single shared physical frame, or a fresh frame in the
    ablation mode) and restarts execution from the beginning with
    registers and flags re-initialised. Memory is not re-filled: bytes
    an earlier attempt stored, including the part of a page-crossing
    store that landed before its fault, stay in the frames for the next
    attempt to read. The attempts are deterministic, so the final
    measured run's address trace is too. *)

open X86

type failure =
  | Unmappable_address of int64
      (** fault address outside the user-space mappable range *)
  | Too_many_faults of int
  | Arithmetic_fault  (** division by zero: the process dies with SIGFPE *)
  | Mapping_disabled of int64
      (** a fault occurred while running in [No_mapping] mode *)

let failure_to_string = function
  | Unmappable_address a -> Printf.sprintf "unmappable address 0x%Lx" a
  | Too_many_faults n -> Printf.sprintf "exceeded max faults (%d)" n
  | Arithmetic_fault -> "SIGFPE (division error)"
  | Mapping_disabled a -> Printf.sprintf "SIGSEGV at 0x%Lx (no mapping)" a

type success = {
  mmu : Memsim.Mmu.t;
  steps : Xsem.Step_log.t;  (** the final, complete execution *)
  faults : int;  (** mappings the monitor had to create *)
  distinct_frames : int;
}

(* One fresh measuring-process state, as (re)initialised before every
   (re)start of the unrolled block. *)
let fresh_state (env : Environment.t) =
  let st = Xsem.Machine_state.create () in
  Xsem.Machine_state.init_constant st (Environment.fill_value_u64 env);
  st.ftz <- env.disable_underflow;
  st

let div_by_zero steps = Xsem.Step_log.any_event steps Xsem.Step_log.Div_by_zero

let run ?log (env : Environment.t) (block : Inst.t list) ~unroll :
    (success, failure) result =
  let mmu = Memsim.Mmu.create () in
  let phys = Memsim.Mmu.phys mmu in
  (* The shared frame used by Single_physical_page mode. *)
  let shared_pfn = Memsim.Phys_mem.allocate phys in
  Memsim.Phys_mem.fill_const phys shared_pfn env.fill_value;
  let map_fault_page vaddr =
    let vpn = Memsim.Fault.page_of_address vaddr in
    match env.mapping with
    | Environment.Single_physical_page ->
      Memsim.Mmu.map_aliased mmu ~vpn ~pfn:shared_pfn
    | Environment.Fresh_pages ->
      let pfn = Memsim.Mmu.map_fresh mmu vpn in
      Memsim.Phys_mem.fill_const phys pfn env.fill_value
    | Environment.No_mapping -> assert false
  in
  (* Every attempt records into one log, which the final run leaves to
     the result. *)
  let log =
    match log with
    | Some log -> log
    | None -> Xsem.Step_log.create ~steps:(List.length block * unroll)
  in
  let rec monitor num_faults =
    let st = fresh_state env in
    match Xsem.Executor.run_unrolled ~log st mmu block ~unroll with
    | Xsem.Executor.Completed steps ->
      if div_by_zero steps then Error Arithmetic_fault
      else
        Ok
          {
            mmu;
            steps;
            faults = num_faults;
            distinct_frames = Memsim.Page_table.distinct_frames (Memsim.Mmu.table mmu);
          }
    | Faulted { fault; steps; _ } ->
      (* A division fault can precede the memory fault. *)
      if div_by_zero steps then Error Arithmetic_fault
      else begin
        let addr = Memsim.Fault.address fault in
        match env.mapping with
        | Environment.No_mapping -> Error (Mapping_disabled addr)
        | Environment.Fresh_pages | Environment.Single_physical_page ->
          if not (Memsim.Fault.is_valid_address addr) then
            Error (Unmappable_address addr)
          else if num_faults >= env.max_faults then
            Error (Too_many_faults env.max_faults)
          else begin
            map_fault_page addr;
            monitor (num_faults + 1)
          end
      end
  in
  monitor 0
