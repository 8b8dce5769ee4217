(* Fault tolerance and self-checking: Csv.atomically, Pool.run_results,
   the Checkpoint journal, Sweep retries / fault injection / resume, and
   the Invariants battery.

   The resume property here simulates the interruption by truncating a
   completed journal to a prefix (any prefix is a state a kill could
   have left behind, since saves are atomic per cell); the CI smoke job
   performs a real mid-sweep kill -9. *)

module E = Vliw_experiments
module Pool = Vliw_util.Pool
module Csv = Vliw_util.Csv
module Counters = Vliw_telemetry.Counters
module Report = Vliw_telemetry.Report
module Q = QCheck

let temp_path () =
  let path = Filename.temp_file "vliwsim-test" ".journal" in
  Sys.remove path;
  path

let read_file path = In_channel.with_open_text path In_channel.input_all

(* --- Csv.atomically and quoting -------------------------------------- *)

let test_atomic_write_success () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Csv.write ~path ~header:[ "a"; "b" ] [ [ "1"; "2" ] ];
      Alcotest.(check string) "content" "a,b\n1,2\n" (read_file path);
      Alcotest.(check bool) "no temp residue" false
        (Sys.file_exists (path ^ ".tmp")))

let test_atomic_write_failure_preserves_old () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Csv.write ~path ~header:[ "old" ] [ [ "data" ] ];
      Alcotest.check_raises "writer exception propagates"
        (Failure "mid-write crash")
        (fun () ->
          Csv.atomically ~path (fun oc ->
              output_string oc "partial garbage";
              failwith "mid-write crash"));
      Alcotest.(check string)
        "destination untouched" "old\ndata\n" (read_file path);
      Alcotest.(check bool) "temp file cleaned up" false
        (Sys.file_exists (path ^ ".tmp")))

(* Full-text CSV parser (handles newlines inside quoted fields, unlike
   the line-based helper in Test_parallel) for the round-trip check. *)
let parse_csv_text text =
  let rows = ref [] and fields = ref [] and buf = Buffer.create 16 in
  let n = String.length text in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let rec go i quoted =
    if i >= n then ()
    else
      let c = text.[i] in
      if quoted then
        if c = '"' then
          if i + 1 < n && text.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = '"' then go (i + 1) true
      else if c = ',' then begin
        flush_field ();
        go (i + 1) false
      end
      else if c = '\n' then begin
        flush_row ();
        go (i + 1) false
      end
      else begin
        Buffer.add_char buf c;
        go (i + 1) false
      end
  in
  go 0 false;
  if Buffer.length buf > 0 || !fields <> [] then flush_row ();
  List.rev !rows

let test_csv_quoting_roundtrip () =
  let rows =
    [
      [ "plain"; "with,comma"; "with\"quote" ];
      [ "embedded\nnewline"; "cr\rreturn"; "crlf\r\nboth" ];
      [ ""; "\"\""; ",,," ];
    ]
  in
  let header = [ "h1"; "h,2"; "h\n3" ] in
  let parsed = parse_csv_text (Csv.to_string ~header rows) in
  Alcotest.(check (list (list string)))
    "quoted fields survive the round trip" (header :: rows) parsed

(* --- Pool.run_results fault isolation -------------------------------- *)

let test_pool_run_results_isolates () =
  List.iter
    (fun jobs ->
      let tasks =
        Array.init 16 (fun i ~worker ->
            ignore worker;
            if i mod 5 = 0 then failwith (Printf.sprintf "task %d boom" i)
            else i * 10)
      in
      let results = Pool.run_results ~jobs tasks in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
            Alcotest.(check bool)
              (Printf.sprintf "jobs=%d task %d ok" jobs i)
              true
              (i mod 5 <> 0 && v = i * 10)
          | Error (Failure msg) ->
            Alcotest.(check string)
              (Printf.sprintf "jobs=%d task %d error" jobs i)
              (Printf.sprintf "task %d boom" i)
              msg
          | Error e -> raise e)
        results)
    [ 1; 4 ]

let test_pool_run_results_worker_dependent () =
  (* A task that raises except on worker 0: with jobs=1 everything runs
     on worker 0 and succeeds; the prior results delivered through
     on_result are preserved either way. *)
  let tasks = Array.init 12 (fun i ~worker -> if worker <> 0 then failwith "not worker 0" else i) in
  let serial_seen = ref [] in
  let serial =
    Pool.run_results ~jobs:1
      ~on_result:(fun i r -> serial_seen := (i, r) :: !serial_seen)
      tasks
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "serial task %d ok" i)
        true (r = Ok i))
    serial;
  Alcotest.(check int) "on_result saw every task" 12 (List.length !serial_seen);
  let parallel = Pool.run_results ~jobs:4 tasks in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "parallel ok value" i v
      | Error (Failure msg) ->
        Alcotest.(check string) "parallel error" "not worker 0" msg
      | Error e -> raise e)
    parallel

(* --- Checkpoint journal ---------------------------------------------- *)

let sample_meta =
  {
    E.Checkpoint.scale = "quick";
    seed = 0xC5EEDL;
    scheme_names = [ "1S"; "3SSS" ];
    mix_names = [ "LLHH"; "MMMM" ];
    telemetry = true;
  }

let sample_records =
  [
    {
      E.Checkpoint.mix = "LLHH";
      scheme = "1S";
      row_seed = -1234567890123456789L;
      ipc = 3.14159265358979;
      attempts = 2;
      counters = Some [ ("slots.filled", 42); ("sweep.retries", 1) ];
    };
    {
      E.Checkpoint.mix = "MMMM";
      scheme = "3SSS";
      row_seed = 7L;
      ipc = Float.nan;
      attempts = 1;
      counters = None;
    };
    {
      E.Checkpoint.mix = "odd name, with comma";
      scheme = "a=b c%d";
      row_seed = 0L;
      ipc = 0.0;
      attempts = 1;
      counters = Some [ ("weird key=x", 1) ];
    };
  ]

let test_checkpoint_roundtrip () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t =
        List.fold_left E.Checkpoint.add
          (E.Checkpoint.create sample_meta)
          sample_records
      in
      E.Checkpoint.save ~path t;
      match E.Checkpoint.load ~path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok t' ->
        Alcotest.(check bool) "meta equal" true
          (E.Checkpoint.meta_equal t.meta t'.meta);
        Alcotest.(check int) "record count" (List.length t.records)
          (List.length t'.records);
        List.iter2
          (fun (a : E.Checkpoint.record) (b : E.Checkpoint.record) ->
            Alcotest.(check string) "mix" a.mix b.mix;
            Alcotest.(check string) "scheme" a.scheme b.scheme;
            Alcotest.(check int64) "row_seed" a.row_seed b.row_seed;
            Alcotest.(check int64) "ipc bits survive exactly"
              (Int64.bits_of_float a.ipc)
              (Int64.bits_of_float b.ipc);
            Alcotest.(check int) "attempts" a.attempts b.attempts;
            Alcotest.(check bool) "counters" true (a.counters = b.counters))
          t.records t'.records)

let test_checkpoint_rejects_garbage () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match E.Checkpoint.load ~path:(path ^ ".missing") with
      | Ok _ -> Alcotest.fail "missing file must not load"
      | Error _ -> ());
      Out_channel.with_open_text path (fun oc ->
          output_string oc "not a checkpoint\ncell mix=a scheme=b\n");
      (match E.Checkpoint.load ~path with
      | Ok _ -> Alcotest.fail "bad magic must not load"
      | Error msg ->
        Alcotest.(check bool) "mentions magic" true
          (String.length msg > 0));
      (* valid magic + meta, one good cell, one mangled cell: the
         mangled line is dropped, the good one survives *)
      let t =
        E.Checkpoint.add (E.Checkpoint.create sample_meta)
          (List.hd sample_records)
      in
      let text = E.Checkpoint.to_string t ^ "cell mix=only scheme=broken\n" in
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      match E.Checkpoint.load ~path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok t' ->
        Alcotest.(check int) "malformed cell dropped" 1
          (List.length t'.records))

(* --- Sweep fault injection, retries, degradation ---------------------- *)

let with_injection hook f =
  E.Sweep.inject_failure := Some hook;
  Fun.protect ~finally:(fun () -> E.Sweep.inject_failure := None) f

let small_schemes = [ "1S"; "3SSS" ]
let small_mixes = [ "LLHH"; "MMMM" ]

let run_small ?(jobs = 1) ?(telemetry = false) ?max_retries ?cell_timeout_s
    ?checkpoint ?resume ?seed () =
  E.Sweep.run_cells ~scale:E.Common.Quick ?seed ~scheme_names:small_schemes
    ~mix_names:small_mixes ~jobs ~telemetry ?max_retries ?cell_timeout_s
    ?checkpoint ?resume ()

let test_degraded_cell () =
  (* Cell (0, 1) always fails; with one retry it still degrades while
     every other cell is untouched. *)
  with_injection
    (fun ~row ~col -> row = 0 && col = 1)
    (fun () ->
      let scheme_names, mix_names, cells =
        run_small ~telemetry:true ~max_retries:1 ()
      in
      let bad = E.Sweep.degraded cells in
      Alcotest.(check int) "one degraded cell" 1 (List.length bad);
      let c = List.hd bad in
      Alcotest.(check string) "mix" "LLHH" c.mix;
      Alcotest.(check string) "scheme" "3SSS" c.scheme;
      Alcotest.(check int) "attempts = 1 + max_retries" 2 c.attempts;
      Alcotest.(check bool) "ipc is nan" true (Float.is_nan c.ipc);
      Alcotest.(check bool) "error recorded" true
        (match c.error with
        | Some msg ->
          (* substring check: Failure("injected fault in cell (0, 1)") *)
          let sub = "injected fault" in
          let rec contains i =
            i + String.length sub <= String.length msg
            && (String.sub msg i (String.length sub) = sub || contains (i + 1))
          in
          contains 0
        | None -> false);
      (match c.telemetry with
      | None -> Alcotest.fail "degraded cell should carry telemetry"
      | Some snap ->
        Alcotest.(check int) "sweep.degraded" 1
          (Counters.count snap Report.n_sweep_degraded);
        Alcotest.(check int) "sweep.retries" 1
          (Counters.count snap Report.n_sweep_retries));
      (* the grid renders the degraded cell as n/a *)
      let grid = E.Sweep.grid_of_cells ~scheme_names ~mix_names cells in
      let _, rows = E.Common.grid_csv grid in
      Alcotest.(check bool) "csv renders n/a" true
        (List.exists (List.mem "n/a") rows);
      Alcotest.(check string) "ipc_string" "n/a"
        (E.Common.ipc_string Float.nan))

let test_fault_injection_acceptance () =
  (* 10% of cells (here: cell index multiples of 10 over a 4x4 grid --
     use the full catalog rows to get enough cells) fail twice then
     succeed; with max_retries 2 the sweep completes with zero degraded
     cells and the retry counters match the injected schedule exactly. *)
  let scheme_names = [ "1S"; "2SC3"; "3SSS"; "C4" ] in
  let mix_names = [ "LLLL"; "LLHH"; "MMMM"; "HHHH"; "LMMH" ] in
  let n_cols = List.length scheme_names in
  let n_cells = n_cols * List.length mix_names in
  let injected = List.filter (fun i -> i mod 10 = 0) (List.init n_cells Fun.id) in
  List.iter
    (fun jobs ->
      let attempts_seen = Array.init n_cells (fun _ -> Atomic.make 0) in
      with_injection
        (fun ~row ~col ->
          let idx = (row * n_cols) + col in
          idx mod 10 = 0 && Atomic.fetch_and_add attempts_seen.(idx) 1 < 2)
        (fun () ->
          let _, _, cells =
            E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names ~mix_names
              ~jobs ~telemetry:true ~max_retries:2 ()
          in
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d zero degraded" jobs)
            0
            (List.length (E.Sweep.degraded cells));
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d total retries = 2 per injected cell" jobs)
            (2 * List.length injected)
            (E.Sweep.total_retries cells);
          Array.iteri
            (fun idx c ->
              let expected = if idx mod 10 = 0 then 3 else 1 in
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d cell %d attempts" jobs idx)
                expected c.E.Sweep.attempts)
            cells;
          let merged = E.Sweep.merged_telemetry cells in
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d merged sweep.retries" jobs)
            (2 * List.length injected)
            (Counters.count merged Report.n_sweep_retries);
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d merged sweep.degraded" jobs)
            0
            (Counters.count merged Report.n_sweep_degraded)))
    [ 1; 4 ]

let test_injected_faults_do_not_change_results () =
  (* Retried cells are pure: a sweep with transient injected faults
     produces the bit-identical grid of an undisturbed sweep. *)
  let clean = run_small () in
  let again =
    let counts = Array.init 4 (fun _ -> Atomic.make 0) in
    with_injection
      (fun ~row ~col ->
        let idx = (row * 2) + col in
        Atomic.fetch_and_add counts.(idx) 1 < 1)
      (fun () -> run_small ~max_retries:1 ())
  in
  let grid_of (s, m, c) = E.Sweep.grid_of_cells ~scheme_names:s ~mix_names:m c in
  Alcotest.(check bool) "grids bit-identical" true
    ((grid_of clean).E.Common.ipc = (grid_of again).E.Common.ipc)

let test_cell_timeout () =
  (* A zero timeout fails every attempt post-hoc; cells degrade and the
     timeouts are counted. *)
  let _, _, cells =
    run_small ~telemetry:true ~max_retries:1 ~cell_timeout_s:0.0 ()
  in
  Alcotest.(check int) "all cells degraded" 4
    (List.length (E.Sweep.degraded cells));
  Array.iter
    (fun (c : E.Sweep.cell) ->
      Alcotest.(check bool) "timeout recorded as error" true
        (match c.error with
        | Some msg ->
          let sub = "Cell_timeout" in
          let rec contains i =
            i + String.length sub <= String.length msg
            && (String.sub msg i (String.length sub) = sub || contains (i + 1))
          in
          contains 0
        | None -> false);
      match c.telemetry with
      | None -> Alcotest.fail "telemetry expected"
      | Some snap ->
        Alcotest.(check int) "two timed-out attempts" 2
          (Counters.count snap Report.n_sweep_timeouts))
    cells

(* --- Resume: interrupted-then-resumed = fresh ------------------------- *)

let prop_resume_bit_identical =
  (* Complete a journaled sweep, truncate the journal to its first k
     records (any prefix is a legal crash state: saves are atomic per
     cell), then resume. The resumed grid must be bit-identical to the
     fresh one, at jobs 1 and 4. *)
  Q.Test.make ~count:8 ~name:"sweep: interrupted-then-resumed = fresh run"
    Q.(triple (int_bound 1000) (int_bound 4) (oneofl [ 1; 4 ]))
    (fun (seed_i, keep, jobs) ->
      let seed = Int64.of_int (seed_i + 1) in
      let path = temp_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let fresh = run_small ~jobs ~seed ~telemetry:true () in
          ignore (run_small ~jobs ~seed ~telemetry:true ~checkpoint:path ());
          (match E.Checkpoint.load ~path with
          | Error msg -> Q.Test.fail_reportf "journal load failed: %s" msg
          | Ok t ->
            let prefix =
              List.filteri (fun i _ -> i < keep) t.E.Checkpoint.records
            in
            E.Checkpoint.save ~path
              { t with E.Checkpoint.records = prefix });
          let resumed =
            run_small ~jobs ~seed ~telemetry:true ~checkpoint:path ~resume:true
              ()
          in
          let grid_of (s, m, c) =
            E.Sweep.grid_of_cells ~scheme_names:s ~mix_names:m c
          in
          let _, _, resumed_cells = resumed in
          let restored =
            Array.fold_left
              (fun acc (c : E.Sweep.cell) ->
                acc + if c.attempts = 0 then 1 else 0)
              0 resumed_cells
          in
          restored = min keep 4
          && (grid_of fresh).E.Common.ipc = (grid_of resumed).E.Common.ipc))

let test_resume_ignores_mismatched_journal () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (run_small ~seed:1L ~checkpoint:path ());
      let warnings = ref [] in
      let _, _, cells =
        E.Sweep.run_cells ~scale:E.Common.Quick ~seed:2L
          ~scheme_names:small_schemes ~mix_names:small_mixes ~checkpoint:path
          ~resume:true
          ~log:(fun m -> warnings := m :: !warnings)
          ()
      in
      Alcotest.(check bool) "warned about mismatch" true (!warnings <> []);
      Array.iter
        (fun (c : E.Sweep.cell) ->
          Alcotest.(check bool) "every cell re-simulated" true (c.attempts >= 1))
        cells)

(* --- Invariants ------------------------------------------------------- *)

let quick_metrics () =
  let config = Vliw_sim.Config.make (Vliw_merge.Catalog.find_exn "3SSS").scheme in
  let mix = Vliw_workloads.Mixes.find_exn "LLHH" in
  Vliw_sim.Multitask.run config ~seed:7L
    ~schedule:Vliw_sim.Multitask.quick_schedule mix.members

let test_invariants_pass_on_real_run () =
  let m = quick_metrics () in
  Alcotest.(check (list string)) "no violations" [] (Vliw_sim.Invariants.violations m)

let test_invariants_catch_corruption () =
  let m = quick_metrics () in
  let caught what m' =
    Alcotest.(check bool) what true (Vliw_sim.Invariants.violations m' <> [])
  in
  caught "ops + 1" { m with ops = m.ops + 1 };
  caught "instrs - 1" { m with instrs = m.instrs - 1 };
  caught "cycles + 1" { m with cycles = m.cycles + 1 };
  caught "vertical > cycles" { m with vertical_waste_cycles = m.cycles + 1 };
  caught "misses > accesses" { m with dcache_misses = m.dcache_accesses + 1 };
  caught "per-thread ops"
    {
      m with
      per_thread =
        Array.map
          (fun (pt : Vliw_sim.Metrics.per_thread) -> { pt with ops = pt.ops + 1 })
          m.per_thread;
    };
  (* and the raising form *)
  Alcotest.(check bool) "check_metrics raises Violation" true
    (match Vliw_sim.Invariants.check_metrics { m with ops = m.ops + 1 } with
    | () -> false
    | exception Vliw_sim.Invariants.Violation _ -> true)

let test_attribution_check () =
  let reg = Counters.create () in
  let h = Report.attach reg in
  Counters.add h.Report.slots_offered 100;
  Counters.add h.Report.slots_filled 60;
  Counters.add h.Report.h_ilp 25;
  Counters.add h.Report.v_mem 15;
  Vliw_sim.Invariants.check_attribution (Counters.snapshot reg);
  (* break the sum *)
  Counters.add h.Report.h_ilp 1;
  Alcotest.(check bool) "broken attribution caught" true
    (match Vliw_sim.Invariants.check_attribution (Counters.snapshot reg) with
    | () -> false
    | exception Vliw_sim.Invariants.Violation _ -> true);
  (* a snapshot without attribution counters is a no-op *)
  Vliw_sim.Invariants.check_attribution Counters.empty

let test_select_probe () =
  List.iter
    (fun name ->
      Vliw_sim.Invariants.check_select ~samples:32
        (Vliw_merge.Catalog.find_exn name).scheme)
    [ "1S"; "2SC3"; "3SSS"; "C4" ]

let test_enforced_flag () =
  let before = Vliw_sim.Invariants.enforced () in
  Fun.protect
    ~finally:(fun () -> Vliw_sim.Invariants.set_enforced before)
    (fun () ->
      Vliw_sim.Invariants.set_enforced false;
      Alcotest.(check bool) "off" false (Vliw_sim.Invariants.enforced ());
      Vliw_sim.Invariants.set_enforced true;
      Alcotest.(check bool) "on" true (Vliw_sim.Invariants.enforced ()))

(* A journal on disk that is mutated, cut short or replaced by random
   bytes loads as [Ok] or [Error], and never raises. *)
let checkpoint_robustness =
  let path = temp_path () in
  let load text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    E.Checkpoint.load ~path
  in
  let journal =
    Q.Gen.(
      let name = string_size ~gen:(oneofl [ 'a'; 'Z'; '%'; '='; ','; ' '; ':'; '\n' ]) (0 -- 6) in
      let record =
        map
          (fun ((mix, scheme), (bits, counters)) ->
            {
              E.Checkpoint.mix;
              scheme;
              row_seed = bits;
              ipc = Int64.float_of_bits bits;
              attempts = 1;
              counters;
            })
          (pair (pair name name)
             (pair ui64 (option (list_size (0 -- 3) (pair name small_nat)))))
      in
      map
        (fun records ->
          E.Checkpoint.to_string
            (List.fold_left E.Checkpoint.add (E.Checkpoint.create sample_meta)
               records))
        (list_size (0 -- 4) record))
  in
  Tgen.decoder_robustness ~truncation_fails:false ~name:"checkpoint: load"
    ~decode:load journal

let suite =
  ( "faults",
    [
      Alcotest.test_case "atomic csv write" `Quick test_atomic_write_success;
      Alcotest.test_case "atomic write failure keeps old file" `Quick
        test_atomic_write_failure_preserves_old;
      Alcotest.test_case "csv quoting round-trip" `Quick
        test_csv_quoting_roundtrip;
      Alcotest.test_case "pool run_results isolates" `Quick
        test_pool_run_results_isolates;
      Alcotest.test_case "pool run_results worker-dependent" `Quick
        test_pool_run_results_worker_dependent;
      Alcotest.test_case "checkpoint round-trip" `Quick
        test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint rejects garbage" `Quick
        test_checkpoint_rejects_garbage;
    ]
    @ List.map Tgen.to_alcotest checkpoint_robustness
    @ [
      Alcotest.test_case "degraded cell" `Quick test_degraded_cell;
      Alcotest.test_case "fault injection acceptance" `Slow
        test_fault_injection_acceptance;
      Alcotest.test_case "injected faults keep results bit-identical" `Quick
        test_injected_faults_do_not_change_results;
      Alcotest.test_case "cell timeout" `Quick test_cell_timeout;
      Tgen.to_alcotest prop_resume_bit_identical;
      Alcotest.test_case "resume ignores mismatched journal" `Quick
        test_resume_ignores_mismatched_journal;
      Alcotest.test_case "invariants pass on real run" `Quick
        test_invariants_pass_on_real_run;
      Alcotest.test_case "invariants catch corruption" `Quick
        test_invariants_catch_corruption;
      Alcotest.test_case "attribution check" `Quick test_attribution_check;
      Alcotest.test_case "select probe" `Quick test_select_probe;
      Alcotest.test_case "enforced flag" `Quick test_enforced_flag;
    ] )
