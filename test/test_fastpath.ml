(* The merge-engine fast path against its oracle.

   [Engine.select] runs the signature-based integer conflict checks;
   [Engine.select_reference] evaluates the same scheme tree with the
   original list-walking checks (and live routing). The properties here
   pin the two to bit-identical selections over the full 4-thread
   design space, both routing modes and all rotations, and pin the
   decision cache ([Engine.Memo]) to the uncached engine — including
   across flushes. *)

module Isa = Vliw_isa
module M = Vliw_merge
module Q = QCheck

let m = Isa.Machine.default

let packets_of instrs =
  Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs

let routing_modes = [ M.Conflict.Flexible; M.Conflict.Fixed_slots ]

let routing_name = function
  | M.Conflict.Flexible -> "flexible"
  | M.Conflict.Fixed_slots -> "fixed"

let same_selection (a : M.Engine.selection) (b : M.Engine.selection) =
  a.issued = b.issued && a.rejected = b.rejected && a.packet = b.packet

let show_selection (s : M.Engine.selection) =
  Printf.sprintf "issued=[%s] rejected=[%s] packet=%s"
    (String.concat ";" (List.map string_of_int s.issued))
    (String.concat ";"
       (List.map
          (fun (r : M.Engine.reject) -> string_of_int r.thread)
          s.rejected))
    (match s.packet with
    | None -> "none"
    | Some p -> Printf.sprintf "threads=%x mask=%x" p.threads p.mask)

(* --- fast = reference, randomized over schemes/avail/rotation ------- *)

let four_thread_space = M.Scheme_space.enumerate 4

let prop_fast_equals_reference =
  Q.Test.make ~name:"select = select_reference (random schemes)" ~count:800
    (Q.triple
       (Q.make ~print:string_of_int (Q.Gen.int_bound (List.length four_thread_space - 1)))
       (Tgen.avail_arb 4)
       (Q.make ~print:string_of_int (Q.Gen.int_bound 3)))
    (fun (si, instrs, rotation) ->
      let scheme = List.nth four_thread_space si in
      let avail = packets_of instrs in
      List.for_all
        (fun routing ->
          same_selection
            (M.Engine.select m ~routing scheme ~rotation avail)
            (M.Engine.select_reference m ~routing scheme ~rotation avail))
        routing_modes)

(* Same property over random tree shapes beyond the enumerated space
   (parallel CSMT nodes, 6 threads). *)
let prop_fast_equals_reference_random_trees =
  Q.Test.make ~name:"select = select_reference (random trees, 6 threads)"
    ~count:400
    (Q.pair (Tgen.scheme_arb 6) (Tgen.avail_arb 6))
    (fun (scheme, instrs) ->
      let avail = packets_of instrs in
      List.for_all
        (fun routing ->
          same_selection
            (M.Engine.select m ~routing scheme avail)
            (M.Engine.select_reference m ~routing scheme avail))
        routing_modes)

(* The batched bit-parallel kernel against the same oracle, over the
   enumerated design space x routings x rotations. *)
let prop_batched_equals_reference =
  Q.Test.make ~name:"select_batched = select_reference (random schemes)"
    ~count:800
    (Q.triple
       (Q.make ~print:string_of_int (Q.Gen.int_bound (List.length four_thread_space - 1)))
       (Tgen.avail_arb 4)
       (Q.make ~print:string_of_int (Q.Gen.int_bound 3)))
    (fun (si, instrs, rotation) ->
      let scheme = List.nth four_thread_space si in
      let avail = packets_of instrs in
      List.for_all
        (fun routing ->
          same_selection
            (M.Engine.select_batched m ~routing scheme ~rotation avail)
            (M.Engine.select_reference m ~routing scheme ~rotation avail))
        routing_modes)

let prop_batched_equals_reference_random_trees =
  Q.Test.make
    ~name:"select_batched = select_reference (random trees, 6 threads)"
    ~count:400
    (Q.pair (Tgen.scheme_arb 6) (Tgen.avail_arb 6))
    (fun (scheme, instrs) ->
      let avail = packets_of instrs in
      List.for_all
        (fun routing ->
          same_selection
            (M.Engine.select_batched m ~routing scheme avail)
            (M.Engine.select_reference m ~routing scheme avail))
        routing_modes)

(* A persistent Batch is what the simulator actually drives: reusing one
   evaluator across eval calls (varying ports and rotations) must keep
   agreeing with the throwaway-oracle surface. *)
let prop_batch_reuse_matches =
  Q.Test.make ~name:"persistent Batch = select_batched across evals" ~count:200
    (Q.pair
       (Q.make ~print:string_of_int (Q.Gen.int_bound (List.length four_thread_space - 1)))
       (Q.list_of_size (Q.Gen.return 5) (Q.pair (Tgen.avail_arb 4) (Q.make ~print:string_of_int (Q.Gen.int_bound 3)))))
    (fun (si, inputs) ->
      let scheme = List.nth four_thread_space si in
      List.for_all
        (fun routing ->
          let b = M.Engine.Batch.create m ~routing scheme in
          List.for_all
            (fun (instrs, rotation) ->
              let avail = packets_of instrs in
              Array.iteri
                (fun i -> function
                  | None -> M.Engine.Batch.clear_port b i
                  | Some p -> M.Engine.Batch.set_port_packet b i p)
                avail;
              M.Engine.Batch.eval b ~rotation;
              let oracle =
                M.Engine.select m ~routing scheme ~rotation avail
              in
              let issued_mask =
                List.fold_left (fun acc t -> acc lor (1 lsl t)) 0 oracle.issued
              in
              M.Engine.Batch.issued b = issued_mask
              && M.Engine.Batch.rejected_conflict b
                   lor M.Engine.Batch.rejected_capacity b
                 = List.fold_left
                     (fun acc (r : M.Engine.reject) -> acc lor (1 lsl r.thread))
                     0 oracle.rejected)
            inputs)
        routing_modes)

(* Exhaustive over the design space with a fixed adversarial avail: every
   enumerated 4-thread scheme, both routings, all rotations. *)
let test_fast_equals_reference_exhaustive () =
  let ops klasses = List.mapi (fun i k -> Isa.Op.make k i) klasses in
  let instr_of klass_lists =
    Isa.Instr.of_cluster_ops ~addr:0 (Array.of_list (List.map ops klass_lists))
  in
  let avails =
    [
      (* dense: every thread competes for cluster 0 *)
      [|
        Some (instr_of [ [ Isa.Op.Load; Isa.Op.Alu ]; []; []; [] ]);
        Some (instr_of [ [ Isa.Op.Alu ]; [ Isa.Op.Mul ]; []; [] ]);
        Some (instr_of [ [ Isa.Op.Branch ]; []; [ Isa.Op.Alu ]; [] ]);
        Some (instr_of [ [ Isa.Op.Alu; Isa.Op.Alu ]; []; []; [ Isa.Op.Store ] ]);
      |];
      (* sparse with stalls *)
      [|
        None;
        Some (instr_of [ []; [ Isa.Op.Alu ]; []; [] ]);
        None;
        Some (instr_of [ []; [ Isa.Op.Mul; Isa.Op.Alu ]; []; [] ]);
      |];
      (* nop-only packets merge with anything *)
      [|
        Some (Isa.Instr.make ~clusters:4 ~addr:0);
        Some (instr_of [ [ Isa.Op.Alu ]; [ Isa.Op.Alu ]; [ Isa.Op.Alu ]; [ Isa.Op.Alu ] ]);
        Some (Isa.Instr.make ~clusters:4 ~addr:0);
        None;
      |];
    ]
  in
  let checked = ref 0 in
  List.iter
    (fun scheme ->
      List.iter
        (fun instrs ->
          let avail = packets_of instrs in
          List.iter
            (fun routing ->
              for rotation = 0 to 3 do
                let fast = M.Engine.select m ~routing scheme ~rotation avail in
                let batched =
                  M.Engine.select_batched m ~routing scheme ~rotation avail
                in
                let slow =
                  M.Engine.select_reference m ~routing scheme ~rotation avail
                in
                incr checked;
                if not (same_selection fast slow) then
                  Alcotest.failf "%s, %s, rot %d:\nfast %s\nref  %s"
                    (M.Scheme.to_string scheme) (routing_name routing) rotation
                    (show_selection fast) (show_selection slow);
                if not (same_selection batched slow) then
                  Alcotest.failf "%s, %s, rot %d:\nbatched %s\nref     %s"
                    (M.Scheme.to_string scheme) (routing_name routing) rotation
                    (show_selection batched) (show_selection slow)
              done)
            routing_modes)
        avails)
    four_thread_space;
  Alcotest.(check bool) "covered the space" true (!checked > 1000)

(* --- decision cache = uncached engine ------------------------------- *)

let prop_memo_matches_select =
  Q.Test.make ~name:"Memo.select/select_issue = select" ~count:600
    (Q.triple
       (Q.make ~print:string_of_int (Q.Gen.int_bound (List.length four_thread_space - 1)))
       (Q.list_of_size (Q.Gen.return 6) (Tgen.avail_arb 4))
       (Q.make ~print:string_of_int (Q.Gen.int_bound 3)))
    (fun (si, avail_list, rotation) ->
      let scheme = List.nth four_thread_space si in
      List.for_all
        (fun routing ->
          let memo = M.Engine.Memo.create m ~routing scheme in
          List.for_all
            (fun instrs ->
              let avail = packets_of instrs in
              let plain = M.Engine.select m ~routing scheme ~rotation avail in
              (* Two passes per avail: the second one exercises the hit
                 path for cacheable densities. *)
              List.for_all
                (fun (_ : int) ->
                  let full = M.Engine.Memo.select memo ~rotation avail in
                  let issue = M.Engine.Memo.select_issue memo ~rotation avail in
                  same_selection full plain
                  && issue.issued = plain.issued
                  && issue.rejected = plain.rejected
                  &&
                  (* select_issue materializes a packet only for the
                     0/1-live closed forms. *)
                  match issue.packet with
                  | None -> true
                  | Some _ -> List.length plain.issued <= 1)
                [ 1; 2 ])
            avail_list)
        routing_modes)

let test_memo_eviction () =
  let scheme = (M.Catalog.find_exn "3SSS").scheme in
  let routing = M.Conflict.Flexible in
  let memo = M.Engine.Memo.create ~cap:8 m ~routing scheme in
  (* Distinct 2-live keys: vary one thread's instruction shape so the
     signature id changes each round; with cap 8 the table must flush. *)
  let mk n_alu =
    let ops = List.init n_alu (fun i -> Isa.Op.make Isa.Op.Alu i) in
    Isa.Instr.of_cluster_ops ~addr:0 [| ops; []; []; [] |]
  in
  let fixed = mk 1 in
  (* Flood the table with more distinct (shape, rotation) keys than the
     cap holds, checking every cached answer against the plain engine. *)
  for round = 0 to 39 do
    let variable =
      let n = (round mod 10) + 1 in
      let ops =
        List.init (min 4 n) (fun i -> Isa.Op.make Isa.Op.Alu i)
        @ (if n > 4 then [ Isa.Op.make Isa.Op.Load 9 ] else [])
      in
      let cl = Array.make 4 [] in
      cl.(round mod 4) <- ops;
      Isa.Instr.of_cluster_ops ~addr:(round * 64) cl
    in
    let avail = packets_of [| Some fixed; Some variable; None; None |] in
    for rotation = 0 to 3 do
      let cached = M.Engine.Memo.select memo ~rotation avail in
      let plain = M.Engine.select m ~routing scheme ~rotation avail in
      if not (same_selection cached plain) then
        Alcotest.failf "round %d rot %d: cached %s plain %s" round rotation
          (show_selection cached) (show_selection plain)
    done
  done;
  let stats = M.Engine.Memo.stats memo in
  Alcotest.(check bool) "table flushed at least once" true (stats.flushes > 0);
  Alcotest.(check bool) "bounded by cap" true (stats.size <= 8);
  (* Post-flush the table still serves: the same lookup twice in a row
     must hit. *)
  let avail = packets_of [| Some fixed; Some (mk 2); None; None |] in
  let first = M.Engine.Memo.select memo avail in
  let before = (M.Engine.Memo.stats memo).hits in
  let second = M.Engine.Memo.select memo avail in
  let after = (M.Engine.Memo.stats memo).hits in
  Alcotest.(check bool) "identical selections" true
    (same_selection first second);
  Alcotest.(check int) "second lookup hits" (before + 1) after

(* Regression: hit/miss tallies must be cumulative across whole-table
   flushes — a flush drops the cached entries, never the counters
   (`vliwsim profile` under-reported long adaptive runs otherwise). *)
let test_memo_counters_cumulative_across_flush () =
  let scheme = (M.Catalog.find_exn "3SSS").scheme in
  let memo = M.Engine.Memo.create ~cap:4 m ~routing:M.Conflict.Flexible scheme in
  let fixed =
    Isa.Instr.of_cluster_ops ~addr:0 [| [ Isa.Op.make Isa.Op.Alu 0 ]; []; []; [] |]
  in
  (* 16 distinct 2-live signatures: every lookup misses, so the table
     crosses its cap-4 flush boundary several times. *)
  let lookups = ref 0 in
  for round = 0 to 15 do
    let ops = List.init ((round / 4) + 1) (fun i -> Isa.Op.make Isa.Op.Alu i) in
    let cl = Array.make 4 [] in
    cl.(round mod 4) <- ops;
    let variable = Isa.Instr.of_cluster_ops ~addr:(round * 64) cl in
    let avail = packets_of [| Some fixed; Some variable; None; None |] in
    ignore (M.Engine.Memo.select memo avail : M.Engine.selection);
    incr lookups
  done;
  let s = M.Engine.Memo.stats memo in
  Alcotest.(check bool) "crossed the flush boundary" true (s.flushes > 0);
  Alcotest.(check int) "hits+misses survive flushes cumulatively" !lookups
    (s.hits + s.misses);
  Alcotest.(check int) "all distinct keys missed" !lookups s.misses

let test_memo_closed_forms () =
  let scheme = (M.Catalog.find_exn "3CCC").scheme in
  let memo = M.Engine.Memo.create m ~routing:M.Conflict.Flexible scheme in
  let empty = M.Engine.Memo.select memo (Array.make 4 None) in
  Alcotest.(check (list int)) "0 live issues nothing" [] empty.issued;
  Alcotest.(check bool) "0 live, no packet" true (empty.packet = None);
  let i = Isa.Instr.of_cluster_ops ~addr:0 [| [ Isa.Op.make Isa.Op.Alu 0 ]; []; []; [] |] in
  let avail = packets_of [| None; None; Some i; None |] in
  let one = M.Engine.Memo.select memo avail in
  Alcotest.(check (list int)) "1 live issues alone" [ 2 ] one.issued;
  Alcotest.(check bool) "1 live reuses the candidate packet" true
    (one.packet == avail.(2));
  let stats = M.Engine.Memo.stats memo in
  Alcotest.(check int) "closed forms never touch the table" 0
    (stats.hits + stats.misses)

(* --- signatures ----------------------------------------------------- *)

let test_signature_empty () =
  let nop = Isa.Instr.make ~clusters:4 ~addr:0 in
  let sg = Isa.Instr.signature m nop in
  Alcotest.(check int) "empty mask" 0 sg.sg_mask;
  Alcotest.(check int) "no ops" 0 sg.sg_ops;
  Alcotest.(check bool) "id interned" true (sg.sg_id >= 0)

let test_signature_shared_id () =
  let mk () =
    Isa.Instr.of_cluster_ops ~addr:4096
      [| [ Isa.Op.make Isa.Op.Load 0; Isa.Op.make Isa.Op.Alu 1 ]; []; [ Isa.Op.make Isa.Op.Mul 2 ]; [] |]
  in
  let a = Isa.Instr.signature m (mk ()) in
  let b = Isa.Instr.signature m (mk ()) in
  Alcotest.(check int) "structurally equal instrs intern to one id" a.sg_id
    b.sg_id;
  Alcotest.(check int) "mask covers clusters 0 and 2" 0b101 a.sg_mask

let prop_signature_counts_consistent =
  Q.Test.make ~name:"signature counts agree with the op lists" ~count:300
    (Tgen.instr_arb ())
    (fun instr ->
      let sg = Isa.Instr.signature m instr in
      sg.sg_ops = Isa.Instr.op_count instr
      && Isa.Instr.mem_op_count instr = List.length (Isa.Instr.mem_ops instr)
      && sg.sg_mask = Isa.Instr.cluster_mask instr)

(* --- routing stays off the per-cycle path --------------------------- *)

let test_no_routing_per_cycle () =
  let profiles = (Vliw_workloads.Mixes.find_exn "LLHH").members in
  let config = Vliw_sim.Config.make (M.Catalog.find_exn "2SC3").scheme in
  M.Routing.reset_calls ();
  let metrics =
    Vliw_sim.Multitask.run config ~seed:11L
      ~schedule:Vliw_sim.Multitask.quick_schedule profiles
  in
  Alcotest.(check bool) "simulated some cycles" true
    (metrics.Vliw_sim.Metrics.cycles > 0);
  (* Signatures are computed at Program.generate time; the per-cycle
     conflict checks are pure integer arithmetic. A single route call
     here means the fast path regressed to re-routing. *)
  Alcotest.(check int) "route calls during simulation" 0 (M.Routing.calls ());
  (* The counter itself works: the fixed-slot reference checks re-route
     each thread's operations on every comparison. *)
  let i =
    Isa.Instr.of_cluster_ops ~addr:0
      [| [ Isa.Op.make Isa.Op.Alu 0 ]; []; []; [] |]
  in
  let avail = packets_of [| Some i; Some i; None; None |] in
  ignore
    (M.Engine.select_reference m ~routing:M.Conflict.Fixed_slots
       (M.Catalog.find_exn "1S").scheme avail
      : M.Engine.selection);
  Alcotest.(check bool) "reference path routes" true (M.Routing.calls () > 0)

(* --- zero-allocation steady state ----------------------------------- *)

(* The step with telemetry off and no counters must not touch the minor
   heap once warm, whatever the issue policy: the measured minor-word
   delta over N steps must equal the delta of the measurement harness
   alone (0 steps). Warmup covers cold-start work — signature interning
   is already done at Program.generate time, but cache tags, predictor
   counters and the Batch lanes deserve settling. *)
let check_zero_alloc label config =
  let mix = Vliw_workloads.Mixes.find_exn "LLHH" in
  let rng = Vliw_util.Rng.create 7L in
  let programs =
    List.map
      (fun p ->
        Vliw_compiler.Program.generate
          ~seed:(Vliw_util.Rng.next_int64 rng)
          config.Vliw_sim.Config.machine p)
      mix.members
  in
  let threads =
    Array.of_list
      (List.mapi
         (fun id program ->
           Vliw_sim.Thread_state.create ~id
             ~seed:(Vliw_util.Rng.next_int64 rng)
             program)
         programs)
  in
  let mem = Vliw_mem.Mem_system.create config.Vliw_sim.Config.machine in
  let core = Vliw_sim.Core.create config mem in
  let n = Vliw_sim.Config.contexts config in
  Vliw_sim.Core.install core
    (Array.init n (fun i ->
         if i < Array.length threads then Some threads.(i) else None));
  for _ = 1 to 10_000 do
    Vliw_sim.Core.step core
  done;
  let delta steps =
    let w0 = Gc.minor_words () in
    for _ = 1 to steps do
      Vliw_sim.Core.step core
    done;
    Gc.minor_words () -. w0
  in
  let harness_only = delta 0 in
  let with_steps = delta 10_000 in
  if with_steps <> harness_only then
    Alcotest.failf
      "%s: steady state allocated %.0f minor words over 10k cycles (harness \
       baseline %.0f)"
      label
      (with_steps -. harness_only) harness_only

let test_zero_alloc_steady_state () =
  let scheme = (M.Catalog.find_exn "2SC3").scheme in
  check_zero_alloc "merged 2SC3" (Vliw_sim.Config.make scheme);
  check_zero_alloc "imt"
    (Vliw_sim.Config.make ~policy:Vliw_sim.Policy.Imt scheme);
  check_zero_alloc "bmt"
    (Vliw_sim.Config.make
       ~policy:(Vliw_sim.Policy.Bmt { switch_penalty = 3 })
       scheme)

let suite =
  ( "fastpath",
    [
      Alcotest.test_case "fast = reference, exhaustive space" `Quick
        test_fast_equals_reference_exhaustive;
      Alcotest.test_case "memo eviction stays correct" `Quick test_memo_eviction;
      Alcotest.test_case "memo counters cumulative across flushes" `Quick
        test_memo_counters_cumulative_across_flush;
      Alcotest.test_case "memo closed forms" `Quick test_memo_closed_forms;
      Alcotest.test_case "signature of empty instr" `Quick test_signature_empty;
      Alcotest.test_case "signature interning" `Quick test_signature_shared_id;
      Alcotest.test_case "no routing per cycle" `Quick test_no_routing_per_cycle;
      Alcotest.test_case "zero-alloc steady state" `Quick
        test_zero_alloc_steady_state;
      Tgen.to_alcotest prop_fast_equals_reference;
      Tgen.to_alcotest prop_fast_equals_reference_random_trees;
      Tgen.to_alcotest prop_batched_equals_reference;
      Tgen.to_alcotest prop_batched_equals_reference_random_trees;
      Tgen.to_alcotest prop_batch_reuse_matches;
      Tgen.to_alcotest prop_memo_matches_select;
      Tgen.to_alcotest prop_signature_counts_consistent;
    ] )
