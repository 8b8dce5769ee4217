(* The parallel experiment stack: Vliw_util.Pool, the Sweep engine's
   jobs-count determinism (normative: jobs must never change results),
   and the experiment Registry. *)

module E = Vliw_experiments
module Pool = Vliw_util.Pool

(* --- Pool ----------------------------------------------------------- *)

let test_pool_ordering () =
  let tasks = Array.init 37 (fun i () -> i * i) in
  List.iter
    (fun jobs ->
      let out = Pool.run ~jobs tasks in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        (Array.init 37 (fun i -> i * i))
        out)
    [ 1; 2; 4; 0 ]

let test_pool_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Pool.run ~jobs:4 [||]);
  Alcotest.(check (array string))
    "single task" [| "x" |]
    (Pool.run ~jobs:8 [| (fun () -> "x") |])

let test_pool_exception () =
  let tasks =
    Array.init 8 (fun i () -> if i = 5 then failwith "task 5 boom" else i)
  in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d re-raises" jobs)
        (Failure "task 5 boom")
        (fun () -> ignore (Pool.run ~jobs tasks)))
    [ 1; 3 ]

let test_pool_on_result_serialized () =
  let seen = ref [] in
  let out =
    Pool.run ~jobs:4
      ~on_result:(fun i v -> seen := (i, v) :: !seen)
      (Array.init 20 (fun i () -> i + 100))
  in
  Alcotest.(check int) "all results" 20 (Array.length out);
  let sorted = List.sort compare !seen in
  Alcotest.(check (list (pair int int)))
    "every task reported exactly once"
    (List.init 20 (fun i -> (i, i + 100)))
    sorted

(* --- Sweep determinism ---------------------------------------------- *)

let grid_equal a b =
  a.E.Common.scheme_names = b.E.Common.scheme_names
  && a.E.Common.mix_names = b.E.Common.mix_names
  && a.E.Common.ipc = b.E.Common.ipc (* bit-equality of every float *)

let scheme_subsets =
  [| [ "1S"; "3CCC" ]; [ "2SC3" ]; [ "3SSS"; "2SC3" ]; [ "1S"; "3SSS" ] |]

let mix_subsets =
  [| [ "LLHH" ]; [ "LLLL"; "HHHH" ]; [ "MMMM" ]; [ "LLHH"; "MMMM" ] |]

let test_sweep_jobs_deterministic =
  QCheck.Test.make ~count:4 ~name:"sweep: jobs=1 equals jobs=4 bit-for-bit"
    QCheck.(triple (int_bound 1000) (int_bound 3) (int_bound 3))
    (fun (seed, si, mi) ->
      let run jobs =
        E.Sweep.run ~scale:E.Common.Quick ~seed:(Int64.of_int seed)
          ~scheme_names:scheme_subsets.(si) ~mix_names:mix_subsets.(mi) ~jobs ()
      in
      grid_equal (run 1) (run 4))

let test_sweep_progress_and_timing () =
  let events = ref [] in
  let grid =
    E.Sweep.run ~scale:E.Common.Quick ~jobs:2
      ~scheme_names:[ "1S"; "3SSS" ] ~mix_names:[ "LLHH" ]
      ~progress:(fun p -> events := p :: !events)
      ()
  in
  Alcotest.(check int) "one row" 1 (Array.length grid.E.Common.ipc);
  Alcotest.(check int) "one progress event per cell" 2 (List.length !events);
  List.iter
    (fun (p : E.Sweep.progress) ->
      Alcotest.(check int) "total is cell count" 2 p.total;
      Alcotest.(check bool) "completed within range" true
        (p.completed >= 1 && p.completed <= 2);
      Alcotest.(check bool) "wall-clock non-negative" true
        (p.last.elapsed_s >= 0.0))
    !events

let test_sweep_row_seed_stable () =
  (* Row seeds depend only on (master seed, mix name). *)
  Alcotest.(check int64)
    "same inputs, same seed"
    (E.Sweep.row_seed ~seed:42L "LLHH")
    (E.Sweep.row_seed ~seed:42L "LLHH");
  Alcotest.(check bool)
    "different mixes, different seeds" true
    (E.Sweep.row_seed ~seed:42L "LLHH" <> E.Sweep.row_seed ~seed:42L "HHHH");
  Alcotest.(check bool)
    "different master seeds differ" true
    (E.Sweep.row_seed ~seed:1L "LLHH" <> E.Sweep.row_seed ~seed:2L "LLHH")

let test_grid_scheme_index () =
  let grid =
    E.Common.make_grid ~scheme_names:[ "1S"; "2SC3"; "3SSS" ]
      ~mix_names:[ "LLHH" ]
      ~ipc:[| [| 1.0; 2.0; 3.0 |] |]
  in
  Alcotest.(check int) "first" 0 (E.Common.scheme_index grid "1S");
  Alcotest.(check int) "last" 2 (E.Common.scheme_index grid "3SSS");
  Alcotest.(check (float 0.0)) "column via index" 2.0
    (E.Common.grid_column grid "2SC3").(0);
  Alcotest.check_raises "unknown scheme"
    (Invalid_argument "grid: unknown scheme ZZ") (fun () ->
      ignore (E.Common.scheme_index grid "ZZ"))

(* --- Registry -------------------------------------------------------- *)

let test_registry_shape () =
  Alcotest.(check int) "19 experiments" 19 (List.length E.Registry.all);
  let ids = E.Registry.ids in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun must ->
      Alcotest.(check bool) (must ^ " registered") true (List.mem must ids))
    [ "table1"; "fig10"; "claims"; "replicates"; "speedup" ];
  Alcotest.(check bool) "replicates excluded from standard" true
    (not
       (List.exists
          (fun e -> E.Registry.id e = "replicates")
          E.Registry.standard));
  Alcotest.(check bool) "find works" true
    (match E.Registry.find "fig10" with Some _ -> true | None -> false);
  Alcotest.(check bool) "find rejects junk" true
    (E.Registry.find "nonesuch" = None)

(* Minimal CSV parser (quoted fields included) used to round-trip every
   exporter's output through Vliw_util.Csv. *)
let parse_csv text =
  let lines = String.split_on_char '\n' text in
  let lines = List.filter (fun l -> l <> "") lines in
  let parse_line line =
    let fields = ref [] and buf = Buffer.create 16 in
    let n = String.length line in
    let rec go i quoted =
      if i >= n then Buffer.contents buf :: !fields
      else
        let c = line.[i] in
        if quoted then
          if c = '"' then
            if i + 1 < n && line.[i + 1] = '"' then begin
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
          fields := Buffer.contents buf :: !fields;
          Buffer.clear buf;
          go (i + 1) false
        end
        else begin
          Buffer.add_char buf c;
          go (i + 1) false
        end
    in
    List.rev (go 0 false)
  in
  List.map parse_line lines

let test_registry_runs_and_csv_roundtrip () =
  (* Every registered experiment renders non-empty output at Quick
     scale, and when it exports CSV the data survives a render/parse
     round-trip. The ctx is shared so the fig10 grid runs once. *)
  let ctx = E.Registry.make_ctx ~scale:E.Common.Quick ~jobs:2 () in
  List.iter
    (fun entry ->
      let id = E.Registry.id entry in
      let text, csv = E.Registry.run_entry ctx entry in
      Alcotest.(check bool) (id ^ " renders non-empty") true
        (String.length (String.trim text) > 0);
      match csv with
      | None -> ()
      | Some (header, rows) ->
        Alcotest.(check bool) (id ^ " csv header non-empty") true (header <> []);
        Alcotest.(check bool) (id ^ " csv has rows") true (rows <> []);
        List.iter
          (fun row ->
            Alcotest.(check int)
              (id ^ " csv row width")
              (List.length header) (List.length row))
          rows;
        let parsed = parse_csv (Vliw_util.Csv.to_string ~header rows) in
        Alcotest.(check bool)
          (id ^ " csv round-trips")
          true
          (parsed = header :: rows))
    E.Registry.all

let test_registry_fig10_shared () =
  (* fig6/fig11/fig12/claims must all reuse the ctx's lazy fig10 grid:
     forcing it once and running the dependents must not re-run it. We
     detect sharing via progress events, which only sweeps emit. *)
  let events = ref 0 in
  let ctx =
    E.Registry.make_ctx ~scale:E.Common.Quick ~jobs:1
      ~progress:(fun _ -> incr events)
      ()
  in
  let _ = E.Registry.run_entry ctx (E.Registry.find_exn "fig10") in
  let after_fig10 = !events in
  Alcotest.(check bool) "fig10 sweep emitted progress" true (after_fig10 > 0);
  let _ = E.Registry.run_entry ctx (E.Registry.find_exn "fig6") in
  let _ = E.Registry.run_entry ctx (E.Registry.find_exn "fig11") in
  let _ = E.Registry.run_entry ctx (E.Registry.find_exn "claims") in
  Alcotest.(check int) "no re-sweep for dependents" after_fig10 !events

let suite =
  ( "parallel-stack",
    [
      Alcotest.test_case "pool preserves ordering" `Quick test_pool_ordering;
      Alcotest.test_case "pool edge cases" `Quick test_pool_empty_and_single;
      Alcotest.test_case "pool propagates exceptions" `Quick test_pool_exception;
      Alcotest.test_case "pool on_result" `Quick test_pool_on_result_serialized;
      QCheck_alcotest.to_alcotest test_sweep_jobs_deterministic;
      Alcotest.test_case "sweep progress + timing" `Quick
        test_sweep_progress_and_timing;
      Alcotest.test_case "sweep row seeds" `Quick test_sweep_row_seed_stable;
      Alcotest.test_case "grid scheme index" `Quick test_grid_scheme_index;
      Alcotest.test_case "registry shape" `Quick test_registry_shape;
      Alcotest.test_case "registry runs + csv round-trip" `Slow
        test_registry_runs_and_csv_roundtrip;
      Alcotest.test_case "registry shares fig10 grid" `Quick
        test_registry_fig10_shared;
    ] )
