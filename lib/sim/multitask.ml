module Rng = Vliw_util.Rng

type schedule = { timeslice : int; target_instrs : int; max_cycles : int }

let paper_schedule =
  { timeslice = 1_000_000; target_instrs = 100_000_000; max_cycles = max_int }

let default_schedule =
  { timeslice = 50_000; target_instrs = 400_000; max_cycles = 1_500_000 }

let quick_schedule =
  { timeslice = 5_000; target_instrs = 20_000; max_cycles = 60_000 }

let resident_set rng n_contexts threads =
  let n_threads = Array.length threads in
  if n_threads <= n_contexts then
    Array.init n_contexts (fun i -> if i < n_threads then Some threads.(i) else None)
  else begin
    (* Random sample without replacement (paper: replacement threads are
       picked at random after the context switch). *)
    let order = Array.init n_threads Fun.id in
    Rng.shuffle rng order;
    Array.init n_contexts (fun i -> Some threads.(order.(i)))
  end

let run_programs config ?(perfect_mem = false) ?(seed = 0x5EEDL)
    ?(schedule = default_schedule) ?telemetry ?counters ?controller
    programs =
  let rng = Rng.create seed in
  let os_rng = Rng.split rng in
  let threads =
    Array.of_list
      (List.mapi
         (fun id program ->
           Thread_state.create ~id ~seed:(Rng.next_int64 rng) program)
         programs)
  in
  let mem = Vliw_mem.Mem_system.create ~perfect:perfect_mem config.Config.machine in
  let core = Core.create ?telemetry ?counters config mem in
  let n_contexts = Config.contexts config in
  let done_ () =
    Array.exists (fun th -> th.Thread_state.instrs_retired >= schedule.target_instrs) threads
  in
  let finished = ref false in
  (* Adaptive scheme selection: the controller is consulted at every
     timeslice boundary with the finished slice's observation deltas,
     and the merge network switched (penalty charged) when it answers
     with a different scheme. The observation marks are pure reads of
     simulator state, and with a [Static] controller no switch ever
     happens — so results are bit-identical to a controller-less run
     (property-tested). *)
  let slice_idx = ref 0 in
  let consult =
    match controller with
    | None -> fun () -> ()
    | Some c ->
      let mark_cycle = ref 0 and mark_ops = ref 0 and mark_instrs = ref 0 in
      let mark_im = ref 0 and mark_dm = ref 0 in
      let mark_conflict = ref 0 and mark_capacity = ref 0 in
      let mark_thread_ops =
        Array.map (fun th -> th.Thread_state.ops_retired) threads
      in
      fun () ->
        let _, im = Vliw_mem.Mem_system.icache_stats mem in
        let _, dm = Vliw_mem.Mem_system.dcache_stats mem in
        let conflict, capacity = Core.reject_counts core in
        let obs =
          {
            Controller.slice = !slice_idx;
            cycles = Core.cycle core - !mark_cycle;
            ops = Core.ops_issued core - !mark_ops;
            instrs = Core.instrs_issued core - !mark_instrs;
            per_thread_ops =
              Array.mapi
                (fun i th -> th.Thread_state.ops_retired - mark_thread_ops.(i))
                threads;
            rejects_conflict = conflict - !mark_conflict;
            rejects_capacity = capacity - !mark_capacity;
            icache_misses = im - !mark_im;
            dcache_misses = dm - !mark_dm;
          }
        in
        mark_cycle := Core.cycle core;
        mark_ops := Core.ops_issued core;
        mark_instrs := Core.instrs_issued core;
        mark_im := im;
        mark_dm := dm;
        mark_conflict := conflict;
        mark_capacity := capacity;
        Array.iteri
          (fun i th -> mark_thread_ops.(i) <- th.Thread_state.ops_retired)
          threads;
        let prev = Controller.current c in
        let next = Controller.decide c obs in
        if next.Controller.name <> prev.Controller.name then begin
          let penalty =
            Controller.switch_penalty c ~from_:prev.Controller.scheme
              ~to_:next.Controller.scheme
          in
          Core.switch_scheme core ~name:next.Controller.name ~penalty
            next.Controller.scheme
        end
  in
  while (not !finished) && Core.cycle core < schedule.max_cycles do
    Core.install core (resident_set os_rng n_contexts threads);
    let slice_end = min schedule.max_cycles (Core.cycle core + schedule.timeslice) in
    while (not !finished) && Core.cycle core < slice_end do
      Core.step core;
      (* Check the termination condition sparsely; it scans all threads. *)
      if Core.cycle core land 0xFFF = 0 && done_ () then finished := true
    done;
    if done_ () then finished := true;
    if (not !finished) && Core.cycle core < schedule.max_cycles then consult ();
    incr slice_idx
  done;
  (* Report the controller's per-timeslice scheme choices in telemetry:
     one counter per candidate counting the boundary decisions that
     picked it, plus the owner-change total. Observation-only. *)
  (match (controller, counters) with
  | Some c, Some k ->
    let module Tel = Vliw_telemetry in
    List.iter
      (fun (_, name) ->
        Tel.Counters.incr
          (Tel.Counters.counter k (Tel.Report.n_controller_decisions name)))
      (Controller.decisions c);
    let switches = Controller.switches c in
    if switches > 0 then
      Tel.Counters.add
        (Tel.Counters.counter k Tel.Report.n_controller_switches)
        switches
  | _ -> ());
  let metrics = Core.metrics core ~all_threads:threads in
  (* Self-check every result in enforcing builds (test suite, CI,
     VLIWSIM_INVARIANTS=1): the conservation laws hold for any workload
     unless the core's bookkeeping broke. *)
  if Invariants.enforced () then Invariants.check_metrics metrics;
  metrics

let run config ?perfect_mem ?(seed = 0x5EEDL) ?schedule ?mode ?telemetry
    ?counters ?controller profiles =
  let rng = Rng.create (Int64.add seed 0x9E37L) in
  let programs =
    List.map
      (fun p ->
        Vliw_compiler.Program.generate ~seed:(Rng.next_int64 rng) ?mode
          config.Config.machine p)
      profiles
  in
  run_programs config ?perfect_mem ~seed ?schedule ?telemetry ?counters
    ?controller programs
