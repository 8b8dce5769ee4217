module Isa = Vliw_isa
module Merge = Vliw_merge
module Mem = Vliw_mem
module Tel = Vliw_telemetry

type t = {
  config : Config.t;
  mem : Mem.Mem_system.t;
  predictor : Predictor.t;
  n : int;
  width : int;  (* total issue slots per cycle *)
  mutable contexts : Thread_state.t option array;
  mutable cycle : int;
  mutable ops : int;
  mutable instrs : int;
  mutable vertical : int;
  issue_hist : int array;
  (* The current cycle's outcome, as hardware-thread bitmasks: *)
  mutable live : int;  (* threads offering a candidate *)
  mutable issued : int;
  mutable conflict : int;  (* merge rejects by cause *)
  mutable capacity : int;
  mutable bmt_current : int;  (* thread owning the pipeline under BMT *)
  mutable switch_stall_until : int;
      (* end of the current issue-stall bubble (BMT context switch or
         scheme-switch penalty) *)
  mutable telemetry : Tel.Sink.t;
  attribution : Tel.Report.handles option;
  counters : Tel.Counters.t option;
  network : Merge.Merge_network.t option;
      (* the swappable merge network (scheme + routing + batched
         evaluator); Some iff the policy is Merged *)
  mutable scheme_switches : int;  (* effective mid-run reconfigurations *)
  mutable switch_stall_cycles : int;
      (* cycles spent inside an issue-stall window (BMT context-switch
         bubbles and scheme-switch penalties) *)
  mutable rejects_conflict : int;  (* merge rejects by cause, always on: *)
  mutable rejects_capacity : int;  (* cheap controller observations *)
  mutable switch_flushed : int * int;
      (* (scheme_switches, switch_stall_cycles) already booked *)
}

let create ?(telemetry = Tel.Sink.null) ?counters config mem =
  let n = Config.contexts config in
  let telemetry, attribution =
    match counters with
    | None -> (telemetry, None)
    | Some c ->
      (Tel.Sink.both telemetry (Tel.Counters.sink c), Some (Tel.Report.attach c))
  in
  let network =
    match config.Config.policy with
    | Policy.Merged ->
      Some
        (Merge.Merge_network.create config.Config.machine
           ~routing:config.Config.routing config.Config.scheme)
    | Policy.Imt | Policy.Bmt _ -> None
  in
  {
    config;
    mem;
    predictor = Predictor.create config.Config.machine.predictor;
    n;
    width = Isa.Machine.total_issue config.Config.machine;
    contexts = Array.make n None;
    cycle = 0;
    ops = 0;
    instrs = 0;
    vertical = 0;
    issue_hist = Array.make (n + 1) 0;
    live = 0;
    issued = 0;
    conflict = 0;
    capacity = 0;
    bmt_current = 0;
    switch_stall_until = 0;
    telemetry;
    attribution;
    counters;
    network;
    scheme_switches = 0;
    switch_stall_cycles = 0;
    rejects_conflict = 0;
    rejects_capacity = 0;
    switch_flushed = (0, 0);
  }

let set_sink t sink = t.telemetry <- sink

let install t contexts =
  if Array.length contexts <> t.n then
    invalid_arg "Core.install: context count mismatch";
  t.contexts <- contexts

(* Fetch the thread's next instruction if needed; an I-cache miss
   stalls the thread and it offers nothing this cycle. *)
let offers t ~hw (th : Thread_state.t) =
  if Thread_state.stalled th ~now:t.cycle then false
  else begin
    if th.pending == Thread_state.no_instr then begin
      let instr = Thread_state.current_instr th in
      th.pending <- instr;
      let stall = Mem.Mem_system.ifetch t.mem instr.Isa.Instr.addr in
      if stall > 0 then begin
        th.resume_at <- t.cycle + stall;
        th.stall_src <- Thread_state.Fetch_stall;
        if Tel.Sink.enabled t.telemetry then begin
          Tel.Sink.emit t.telemetry ~cycle:t.cycle
            (Tel.Event.Cache_miss { thread = hw; level = Tel.Event.L1i });
          Tel.Sink.emit t.telemetry ~cycle:t.cycle
            (Tel.Event.Fetch_stall { thread = hw; penalty = stall })
        end
      end
    end;
    not (Thread_state.stalled th ~now:t.cycle)
  end

(* Fetch: one pass over the contexts returns the live-port mask and,
   under Merged, loads each live port of the batched evaluator straight
   from the candidate's interned signature (the caller cleared it). *)
let rec fetch t hw live =
  if hw >= t.n then live
  else
    match t.contexts.(hw) with
    | Some th when offers t ~hw th ->
      (match t.network with
      | Some net ->
        Merge.Engine.Batch.set_port
          (Merge.Merge_network.batch net)
          hw
          (Isa.Instr.signature t.config.Config.machine th.pending)
      | None -> ());
      fetch t (hw + 1) (live lor (1 lsl hw))
    | _ -> fetch t (hw + 1) live

(* Sum of D-miss stall penalties over the instruction's memory
   operations. The per-operation work depends only on the operation
   count; top-level recursion with int accumulators keeps the retire
   path free of refs and closures (a [ref] is a minor-heap block, and
   retirement runs inside the zero-allocation steady-state loop). *)
let rec dstall_of t ~hw (th : Thread_state.t) remaining acc =
  if remaining = 0 then acc
  else begin
    let addr = Thread_state.next_addr th in
    let s = Mem.Mem_system.daccess t.mem addr in
    if s > 0 && Tel.Sink.enabled t.telemetry then
      Tel.Sink.emit t.telemetry ~cycle:t.cycle
        (Tel.Event.Cache_miss { thread = hw; level = Tel.Event.L1d });
    dstall_of t ~hw th (remaining - 1)
      (if t.config.stall_on_dmiss then acc + s else acc)
  end

let retire t ~hw (th : Thread_state.t) (instr : Isa.Instr.t) =
  th.instrs_retired <- th.instrs_retired + 1;
  th.ops_retired <- th.ops_retired + Isa.Instr.op_count instr;
  let dstall = dstall_of t ~hw th (Isa.Instr.mem_op_count instr) 0 in
  let bstall =
    if Isa.Instr.has_branch instr then begin
      let taken = Thread_state.next_taken th in
      let target =
        Vliw_compiler.Program.exit_target_idx th.program.blocks.(th.block) th.pc
      in
      assert (target >= 0) (* every branch instruction is an exit *);
      let correct =
        Predictor.predict_and_update t.predictor ~addr:instr.addr ~taken
      in
      if taken then Thread_state.jump_taken th ~target
      else Thread_state.advance_fall_through th;
      if correct then 0 else t.config.machine.branch_penalty
    end
    else begin
      Thread_state.advance_fall_through th;
      0
    end
  in
  th.pending <- Thread_state.no_instr;
  th.resume_at <- t.cycle + 1 + dstall + bstall;
  th.stall_src <-
    (if dstall >= bstall && dstall > 0 then Thread_state.Mem_stall
     else if bstall > 0 then Thread_state.Branch_stall
     else Thread_state.Ready)

(* Round-robin search for the first live port at or after [start];
   -1 when none is live. *)
let rec first_live t live start i =
  if i >= t.n then -1
  else begin
    let hw = (start + i) mod t.n in
    if live land (1 lsl hw) <> 0 then hw else first_live t live start (i + 1)
  end

(* Select: the issuing threads from the live mask. Under Merged the
   batched kernel decides and reports its rejects by cause; IMT and BMT
   issue one live thread and reject nothing on resources. A switch
   bubble (a BMT context switch or a scheme-switch penalty) issues
   nothing. *)
let select t live =
  t.conflict <- 0;
  t.capacity <- 0;
  if t.cycle < t.switch_stall_until then 0
  else
    match (t.network, t.config.policy) with
    | Some net, _ ->
      let batch = Merge.Merge_network.batch net in
      Merge.Engine.Batch.eval batch
        ~rotation:
          (Merge.Merge_network.rotation net ~rotate:t.config.rotate_priority
             ~cycle:t.cycle);
      t.conflict <- Merge.Engine.Batch.rejected_conflict batch;
      t.capacity <- Merge.Engine.Batch.rejected_capacity batch;
      Merge.Engine.Batch.issued batch
    | None, Policy.Imt ->
      (* One thread per cycle, round-robin with stalled-thread skipping. *)
      let hw = first_live t live (t.cycle mod t.n) 0 in
      if hw < 0 then 0 else 1 lsl hw
    | None, Policy.Bmt { switch_penalty } ->
      if live land (1 lsl t.bmt_current) <> 0 then 1 lsl t.bmt_current
      else begin
        (* The running thread blocked: switch to the next ready one. *)
        let hw = first_live t live (t.bmt_current + 1) 0 in
        if hw < 0 then 0
        else begin
          if Tel.Sink.enabled t.telemetry then
            Tel.Sink.emit t.telemetry ~cycle:t.cycle
              (Tel.Event.Bmt_switch
                 { from_thread = t.bmt_current; to_thread = hw });
          t.bmt_current <- hw;
          if switch_penalty = 0 then 1 lsl hw
          else begin
            t.switch_stall_until <- t.cycle + switch_penalty;
            0
          end
        end
      end
    | None, Policy.Merged -> assert false (* [create] builds its network *)

let rec popcount acc m =
  if m = 0 then acc else popcount (acc + 1) (m land (m - 1))

(* Retire every thread of the issued mask in ascending hardware order,
   so the shared D-cache and predictor see one fixed access
   interleaving, then book the cycle's issue statistics. Top-level
   recursion with int accumulators instead of refs: refs are minor-heap
   blocks. *)
let rec retire_issued t issued hw issued_ops n_issued =
  if hw >= t.n then begin
    t.ops <- t.ops + issued_ops;
    t.instrs <- t.instrs + n_issued;
    t.issue_hist.(n_issued) <- t.issue_hist.(n_issued) + 1;
    if issued_ops = 0 then t.vertical <- t.vertical + 1
  end
  else if issued land (1 lsl hw) = 0 then
    retire_issued t issued (hw + 1) issued_ops n_issued
  else begin
    match t.contexts.(hw) with
    | None -> assert false
    | Some th ->
      let instr = th.pending in
      retire t ~hw th instr;
      retire_issued t issued (hw + 1)
        (issued_ops + Isa.Instr.op_count instr)
        (n_issued + 1)
  end

(* Operations offered by the threads of a mask (not yet retired). *)
let rec mask_ops t mask hw acc =
  if hw >= t.n then acc
  else
    mask_ops t mask (hw + 1)
      (match t.contexts.(hw) with
      | Some th when mask land (1 lsl hw) <> 0 ->
        acc + Isa.Instr.op_count th.pending
      | _ -> acc)

(* Exact slot attribution for one cycle; see Vliw_telemetry.Report. *)
let attribute t (h : Tel.Report.handles) ~issued_ops ~priority =
  let w = t.width in
  Tel.Counters.incr h.cycles;
  Tel.Counters.add h.slots_offered w;
  Tel.Counters.add h.slots_filled issued_ops;
  if t.issued = 0 then begin
    (* No thread selected (note: a selected nop-only instruction still
       counts as horizontal waste below). The whole width goes to
       exactly one cause. *)
    if t.live <> 0 then begin
      (* Candidates present but nothing issued only happens inside a
         switch bubble (BMT context switch or merge-network
         reconfiguration): every policy issues whenever any candidate
         is live. The bubble-cycle counter makes the conservation law
         "v_switch = width x bubbles" checkable. *)
      Tel.Counters.add h.v_switch w;
      Tel.Counters.incr h.switch_bubbles
    end
    else begin
      (* Classify by the majority stall source among resident threads
         (ties break fetch > mem > branch). *)
      let fetch = ref 0 and mem = ref 0 and br = ref 0 and resident = ref 0 in
      Array.iter
        (function
          | None -> ()
          | Some (th : Thread_state.t) ->
            incr resident;
            (match th.stall_src with
            | Thread_state.Fetch_stall -> incr fetch
            | Thread_state.Mem_stall -> incr mem
            | Thread_state.Branch_stall -> incr br
            | Thread_state.Ready -> ()))
        t.contexts;
      let cause =
        if !resident = 0 then h.v_idle
        else if !fetch > 0 && !fetch >= !mem && !fetch >= !br then h.v_fetch
        else if !mem > 0 && !mem >= !br then h.v_mem
        else if !br > 0 then h.v_branch
        else h.v_idle
      in
      Tel.Counters.add cause w
    end
  end
  else begin
    (* Horizontal: rejected candidates could have filled slots (capped
       at the actual waste, in cause order); the rest is ILP shortfall. *)
    let rem = ref (w - issued_ops) in
    let take counter mask =
      let ops = mask_ops t mask 0 0 in
      if !rem > 0 && ops > 0 then begin
        let x = min !rem ops in
        Tel.Counters.add counter x;
        rem := !rem - x
      end
    in
    take h.h_conflict t.conflict;
    take h.h_capacity t.capacity;
    take h.h_priority priority;
    if !rem > 0 then Tel.Counters.add h.h_ilp !rem
  end

(* Observe: events and attribution from the cycle's outcome masks,
   walked in ascending thread order. Observation only — it must not
   touch simulator state (the telemetry-on/off bit-equality property
   relies on it). Candidates the policy passed over without a resource
   reason (IMT/BMT, or any live thread in a switch bubble) are priority
   rejects. *)
let observe t ~issued_ops =
  let priority = t.live land lnot (t.issued lor t.conflict lor t.capacity) in
  if Tel.Sink.enabled t.telemetry then begin
    let reject hw reason =
      Tel.Sink.emit t.telemetry ~cycle:t.cycle
        (Tel.Event.Merge_reject { thread = hw; reason })
    in
    for hw = 0 to t.n - 1 do
      let bit = 1 lsl hw in
      if t.conflict land bit <> 0 then reject hw Tel.Event.Conflict
      else if t.capacity land bit <> 0 then reject hw Tel.Event.Capacity
    done;
    for hw = 0 to t.n - 1 do
      if priority land (1 lsl hw) <> 0 then reject hw Tel.Event.Priority
    done;
    if t.issued <> 0 then
      Tel.Sink.emit t.telemetry ~cycle:t.cycle
        (Tel.Event.Issue
           {
             threads = Merge.Packet.bits_to_list t.issued;
             threads_merged = popcount 0 t.issued;
             slots_filled = issued_ops;
           })
  end;
  match t.attribution with
  | Some h -> attribute t h ~issued_ops ~priority
  | None -> ()

(* Fetch and select: leaves the cycle's outcome in [live], [issued],
   [conflict] and [capacity]. *)
let decide t =
  (match t.network with
  | Some net -> Merge.Engine.Batch.clear (Merge.Merge_network.batch net)
  | None -> ());
  t.live <- fetch t 0 0;
  t.issued <- select t t.live

(* Retire and observe the decided cycle, then advance the clock. Reject
   causes are tallied unconditionally (not just under telemetry): they
   are the adaptive controller's cheapest signal. *)
let commit t =
  if t.cycle < t.switch_stall_until then
    t.switch_stall_cycles <- t.switch_stall_cycles + 1;
  t.rejects_conflict <- t.rejects_conflict + popcount 0 t.conflict;
  t.rejects_capacity <- t.rejects_capacity + popcount 0 t.capacity;
  let ops_before = t.ops in
  retire_issued t t.issued 0 0 0;
  if Tel.Sink.enabled t.telemetry || Option.is_some t.attribution then
    observe t ~issued_ops:(t.ops - ops_before);
  t.cycle <- t.cycle + 1

(* With telemetry off and no attribution the step allocates nothing:
   the outcome lives in int masks, candidates reach the batched kernel
   as interned signatures, and retirement walks the issued mask. *)
let step t =
  decide t;
  commit t

type cycle_record = {
  cycle : int;
  candidates : (int * Merge.Packet.t) list;
  issued : int list;
  packet : Merge.Packet.t option;
}

let step_record t =
  decide t;
  let machine = t.config.Config.machine in
  let candidates =
    List.filter_map
      (fun hw ->
        Option.map
          (fun (th : Thread_state.t) ->
            (hw, Merge.Packet.of_instr machine ~thread:hw th.pending))
          t.contexts.(hw))
      (Merge.Packet.bits_to_list t.live)
  in
  let packet_of hw = List.assoc hw candidates in
  let issued = Merge.Packet.bits_to_list t.issued in
  let packet =
    match (t.network, issued) with
    | _, [] -> None
    | Some net, _ ->
      Merge.Engine.Batch.packet (Merge.Merge_network.batch net) packet_of
    | None, hw :: _ -> Some (packet_of hw) (* IMT/BMT issue one thread *)
  in
  let record = { cycle = t.cycle; candidates; issued; packet } in
  commit t;
  record

let cycle (t : t) = t.cycle

let ops_issued t = t.ops

let instrs_issued t = t.instrs

let issue_hist t = Array.copy t.issue_hist

let vertical_waste_cycles t = t.vertical

let network t = t.network

let scheme_name t = Option.map Merge.Merge_network.scheme_name t.network

let scheme_switches t = t.scheme_switches

let switch_stall_cycles t = t.switch_stall_cycles

let reject_counts t = (t.rejects_conflict, t.rejects_capacity)

(* Swap the merge network to a different scheme. Meant to be called at
   a timeslice boundary: nothing is in flight across cycles (candidates
   are re-offered after the bubble), so the switch point is exact.
   [penalty] cycles of issue stall are charged through the same bubble
   mechanism as BMT context switches. *)
let switch_scheme t ?name ~penalty scheme =
  match t.network with
  | None -> invalid_arg "Core.switch_scheme: policy is not Merged"
  | Some net ->
    if not (Merge.Merge_network.same_scheme net scheme) then begin
      let from_scheme = Merge.Merge_network.scheme_name net in
      Merge.Merge_network.reconfigure net ?name scheme;
      t.scheme_switches <- t.scheme_switches + 1;
      if penalty < 0 then invalid_arg "Core.switch_scheme: negative penalty";
      if penalty > 0 then
        t.switch_stall_until <- max t.switch_stall_until (t.cycle + penalty);
      if Tel.Sink.enabled t.telemetry then
        Tel.Sink.emit t.telemetry ~cycle:t.cycle
          (Tel.Event.Scheme_switch
             {
               from_scheme;
               to_scheme = Merge.Merge_network.scheme_name net;
               penalty;
             })
    end

(* Book the reconfiguration counters not yet flushed, so [metrics] may
   be called repeatedly without double counting; flushed for every
   policy (BMT context-switch bubbles also accumulate stall cycles). *)
let flush_switch_counters t =
  match t.counters with
  | Some c ->
    let fs, fw = t.switch_flushed in
    if t.scheme_switches <> fs || t.switch_stall_cycles <> fw then begin
      Tel.Counters.add
        (Tel.Counters.counter c Tel.Report.n_scheme_switches)
        (t.scheme_switches - fs);
      Tel.Counters.add
        (Tel.Counters.counter c Tel.Report.n_switch_stall)
        (t.switch_stall_cycles - fw);
      t.switch_flushed <- (t.scheme_switches, t.switch_stall_cycles)
    end
  | None -> ()

let metrics t ~all_threads : Metrics.t =
  flush_switch_counters t;
  let ia, im = Mem.Mem_system.icache_stats t.mem in
  let da, dm = Mem.Mem_system.dcache_stats t.mem in
  {
    cycles = t.cycle;
    ops = t.ops;
    instrs = t.instrs;
    issue_hist = Array.copy t.issue_hist;
    vertical_waste_cycles = t.vertical;
    slots_offered = t.cycle * t.width;
    icache_accesses = ia;
    icache_misses = im;
    dcache_accesses = da;
    dcache_misses = dm;
    per_thread =
      Array.map
        (fun (th : Thread_state.t) ->
          {
            Metrics.name = Thread_state.name th;
            ops = th.ops_retired;
            instrs = th.instrs_retired;
          })
        all_threads;
  }
