(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper (the rows and
   series the paper reports, at the default scaled-down simulation
   length) — this is the reproduction artifact.

   Part 2 runs Bechamel micro-benchmarks of the simulator's hot
   primitives (merge selection per scheme, routing, cache access,
   compilation, simulation cycles), one Test per experiment family,
   and of the steps of a warm serve submit. *)

module E = Vliw_experiments

let heading title =
  Printf.printf "\n================ %s ================\n%!" title

let regenerate_all ~jobs () =
  (* One fold over the experiment registry; the lazy fig10 grid inside
     the ctx is shared by fig6/fig10/fig11/fig12/claims exactly as the
     old hand-written sequence did. *)
  let ctx = E.Registry.make_ctx ~scale:E.Common.Default ~jobs () in
  List.iter
    (fun entry ->
      heading (E.Registry.title entry);
      let text, _csv = E.Registry.run_entry ctx entry in
      print_string text)
    E.Registry.standard

(* --- machine-readable benchmark (bench --json) ----------------------

   Writes BENCH_sim.json: stepping throughput and decision-cache hit
   rates per scheme family, the wall clock of regenerating every
   standard experiment, and a fixed CPU calibration loop. The
   calibration lets a CI gate compare `exp_all_calibrated` (wall clock
   in calibration units) across machines of different speeds. *)

let calibrate () =
  (* Fixed allocation-free integer workload: ~10^8 RNG draws. *)
  let rng = Vliw_util.Rng.create 0x5CA1AB1EL in
  let acc = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 25_000_000 do
    acc := !acc lxor Vliw_util.Rng.int rng 1024
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

let json_scheme_names = [ "1S"; "C4"; "3CCC"; "3SSS"; "2SC3" ]

type scheme_bench = {
  sb_name : string;
  sb_threads : int;
  sb_cycles_per_sec : float;
  sb_words_per_cycle : float;
}

let bench_scheme name =
  let entry = Vliw_merge.Catalog.find_exn name in
  let config = Vliw_sim.Config.make entry.scheme in
  let mix = Vliw_workloads.Mixes.find_exn "LLHH" in
  let rng = Vliw_util.Rng.create 7L in
  let programs =
    List.map
      (fun p ->
        Vliw_compiler.Program.generate ~seed:(Vliw_util.Rng.next_int64 rng)
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
  for _ = 1 to 50_000 do
    Vliw_sim.Core.step core
  done;
  let n_steps = 1_000_000 in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n_steps do
    Vliw_sim.Core.step core
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = (Gc.allocated_bytes () -. a0) /. 8.0 in
  {
    sb_name = name;
    sb_threads = n;
    sb_cycles_per_sec = float_of_int n_steps /. dt;
    sb_words_per_cycle = words /. float_of_int n_steps;
  }

let time_exp_all ~scale ~jobs () =
  let ctx = E.Registry.make_ctx ~scale ~jobs () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun entry -> ignore (E.Registry.run_entry ctx entry : string * _))
    E.Registry.standard;
  Unix.gettimeofday () -. t0

let write_json ~path ~scale_name ~calib ~exp_all_s schemes =
  let buf = Buffer.create 1024 in
  let fmt = Printf.bprintf in
  fmt buf "{\n";
  fmt buf "  \"schema\": 1,\n";
  fmt buf "  \"scale\": \"%s\",\n" scale_name;
  fmt buf "  \"calibration_s\": %.4f,\n" calib;
  fmt buf "  \"exp_all_wall_s\": %.3f,\n" exp_all_s;
  fmt buf "  \"exp_all_calibrated\": %.3f,\n" (exp_all_s /. calib);
  fmt buf "  \"schemes\": [\n";
  List.iteri
    (fun i sb ->
      fmt buf
        "    { \"name\": \"%s\", \"threads\": %d, \"cycles_per_sec\": %.0f, \
         \"words_per_cycle\": %.1f }%s\n"
        sb.sb_name sb.sb_threads sb.sb_cycles_per_sec sb.sb_words_per_cycle
        (if i = List.length schemes - 1 then "" else ","))
    schemes;
  fmt buf "  ]\n}\n";
  (* Atomic rewrite: the CI perf gate parses this file, so a killed
     bench run must not leave a truncated JSON behind. *)
  Vliw_util.Atomic_io.write_file ~path (Buffer.contents buf)

(* Bench runs join the same ledger as exp/run: the calibrated exp-all
   wall clock and per-scheme stepping throughput become gauges, so
   `vliwsim runs list` shows perf trends next to result drift. A ledger
   failure never fails the benchmark that produced good numbers. *)
let record_ledger ~scale_name ~jobs ~calib ~exp_all_s ~wall_s schemes =
  let module Ledger = Vliw_telemetry.Ledger in
  let gauges =
    [
      ("calibration_s", calib);
      ("exp_all_wall_s", exp_all_s);
      ("exp_all_calibrated", exp_all_s /. calib);
    ]
    @ List.concat_map
        (fun sb ->
          [
            ("cycles_per_sec." ^ sb.sb_name, sb.sb_cycles_per_sec);
            ("Mcycles_per_sec." ^ sb.sb_name, sb.sb_cycles_per_sec /. 1e6);
            ("words_per_cycle." ^ sb.sb_name, sb.sb_words_per_cycle);
          ])
        schemes
  in
  match
    Ledger.append ~dir:Ledger.default_dir
      (Ledger.make ~gauges ~cmd:"bench" ~label:"json" ~scale:scale_name
         ~seed:E.Common.default_seed ~jobs
         ~scheme_names:(List.map (fun sb -> sb.sb_name) schemes)
         ~mix_names:[] ~wall_s ())
  with
  | run ->
    Printf.printf "recorded run %s in %s\n%!" run.Ledger.id
      (Ledger.ledger_path ~dir:Ledger.default_dir)
  | exception e ->
    Printf.eprintf "warning: could not record bench ledger entry: %s\n%!"
      (Printexc.to_string e)

let run_json ~scale_name ~jobs ~path ~ledger () =
  let scale =
    match scale_name with
    | "quick" -> E.Common.Quick
    | "full" -> E.Common.Full
    | _ -> E.Common.Default
  in
  let t0 = Unix.gettimeofday () in
  Printf.printf "calibrating...\n%!";
  let calib = calibrate () in
  Printf.printf "stepping throughput per scheme...\n%!";
  let schemes = List.map bench_scheme json_scheme_names in
  Printf.printf "regenerating all standard experiments (%s)...\n%!" scale_name;
  let exp_all_s = time_exp_all ~scale ~jobs () in
  write_json ~path ~scale_name ~calib ~exp_all_s schemes;
  if ledger then
    record_ledger ~scale_name ~jobs ~calib ~exp_all_s
      ~wall_s:(Unix.gettimeofday () -. t0)
      schemes;
  Printf.printf "wrote %s (exp-all %.1fs, %.1f calibration units)\n%!" path
    exp_all_s (exp_all_s /. calib)

(* --- Bechamel micro-benchmarks --- *)

open Bechamel
open Toolkit

let machine = Vliw_isa.Machine.default

let bench_experiments =
  (* One Test per paper artifact, at Quick scale so the timing loop
     stays tractable. *)
  let quick = E.Common.Quick in
  [
    Test.make ~name:"table1" (Staged.stage (fun () -> E.Table1.run ~scale:quick ()));
    Test.make ~name:"fig4" (Staged.stage (fun () -> E.Fig4.run ~scale:quick ()));
    Test.make ~name:"fig5" (Staged.stage (fun () -> E.Fig5.run ()));
    Test.make ~name:"fig6" (Staged.stage (fun () -> E.Fig6.run ~scale:quick ()));
    Test.make ~name:"fig9" (Staged.stage (fun () -> E.Fig9.run ()));
    Test.make ~name:"ablations"
      (Staged.stage (fun () -> E.Ablations.run ~scale:quick ~mixes:[ "LLHH" ] ()));
    Test.make ~name:"fig10-row"
      (Staged.stage (fun () ->
           E.Sweep.run ~scale:quick
             ~scheme_names:[ "1S"; "3CCC"; "2SC3"; "3SSS" ]
             ~mix_names:[ "LLHH" ] ()));
  ]

let bench_primitives =
  let mix = Vliw_workloads.Mixes.find_exn "LLHH" in
  let programs =
    List.map (Vliw_compiler.Program.generate ~seed:1L machine) mix.members
  in
  let instrs =
    Array.of_list
      (List.map
         (fun (p : Vliw_compiler.Program.t) -> Some p.blocks.(0).instrs.(0))
         programs)
  in
  let schemes =
    List.map
      (fun n -> (n, (Vliw_merge.Catalog.find_exn n).scheme))
      [ "3CCC"; "C4"; "2SC3"; "3SSS" ]
  in
  let select_benches =
    List.map
      (fun (name, scheme) ->
        Test.make ~name:("select-" ^ name)
          (Staged.stage (fun () ->
               ignore (Vliw_merge.Engine.select_instrs machine scheme instrs))))
      schemes
  in
  let cache = Vliw_mem.Cache.create machine.dcache in
  let counter = ref 0 in
  select_benches
  @ [
      Test.make ~name:"cache-access"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Vliw_mem.Cache.access cache (!counter * 64))));
      Test.make ~name:"compile-program"
        (Staged.stage (fun () ->
             ignore
               (Vliw_compiler.Program.generate ~seed:7L machine
                  (Vliw_workloads.Benchmarks.find_exn "g721encode"))));
      Test.make ~name:"simulate-10k-cycles"
        (Staged.stage (fun () ->
             let config =
               Vliw_sim.Config.make (Vliw_merge.Catalog.find_exn "2SC3").scheme
             in
             ignore
               (Vliw_sim.Multitask.run_programs config ~seed:3L
                  ~schedule:
                    {
                      Vliw_sim.Multitask.timeslice = 10_000;
                      target_instrs = max_int;
                      max_cycles = 10_000;
                    }
                  programs)));
    ]

(* The server-side steps of a warm fig10 submit (144 cached cells), as
   [Server] runs them: serialising the cell_finished events, the ledger
   record, one cache lookup per cell, and the grid digest. *)
let bench_warm_submit =
  let module J = Vliw_util.Json in
  let module Ledger = Vliw_telemetry.Ledger in
  let module Cache = Vliw_service.Cache in
  let mixes = Vliw_workloads.Mixes.names in
  let schemes =
    List.filter_map
      (fun (e : Vliw_merge.Catalog.entry) ->
        if e.name = "ST" then None else Some e.name)
      Vliw_merge.Catalog.all
  in
  let slots =
    Array.of_list
      (List.concat_map (fun m -> List.map (fun s -> (m, s)) schemes) mixes)
  in
  let rng = Random.State.make [| 7 |] in
  let ipcs = Array.map (fun _ -> 1.0 +. Random.State.float rng 4.0) slots in
  let cells =
    Array.mapi
      (fun i (mix, scheme) ->
        { Ledger.mix; scheme; ipc = ipcs.(i); elapsed_s = 0.0; started_s = 0.0;
          worker = 0; attempts = 0; degraded = false })
      slots
  in
  let cache = Cache.create () in
  let row = Cache.row ~scale:"quick" ~seed:E.Common.default_seed in
  Array.iteri
    (fun i (mix, scheme) -> Cache.add cache ~key:(Cache.row_key row ~mix ~scheme) ~ipc:ipcs.(i))
    slots;
  let total = Array.length slots in
  let record =
    Ledger.make ~cells ~cmd:"serve" ~label:"warm" ~scale:"quick"
      ~seed:E.Common.default_seed ~jobs:2 ~scheme_names:schemes ~mix_names:mixes
      ~wall_s:0.003 ()
  in
  let digest = Ledger.grid_digest cells in
  [
    Test.make ~name:"events"
      (Staged.stage (fun () ->
           Array.iteri
             (fun i (c : Ledger.cell) ->
               let cell =
                 { E.Sweep.mix = c.mix; scheme = c.scheme; ipc = c.ipc;
                   elapsed_s = 0.0; started_s = 0.0; worker = 0;
                   telemetry = None; attempts = 0; error = None }
               in
               match
                 E.Sweep.json_of_event
                   (E.Sweep.Cell_finished
                      { cell; completed = i + 1; total; eta_s = Float.nan })
               with
               | J.Obj fields ->
                 ignore
                   (Vliw_util.Ndjson.line
                      (J.Obj (("job", J.Str "j2") :: ("cached", J.Bool true) :: fields)))
               | _ -> ())
             cells));
    Test.make ~name:"record"
      (Staged.stage (fun () -> ignore (J.to_string (Ledger.to_json ~digest record))));
    Test.make ~name:"keys"
      (Staged.stage (fun () ->
           let row = Cache.row ~scale:"quick" ~seed:E.Common.default_seed in
           Array.iter
             (fun (mix, scheme) ->
               ignore (Cache.find cache ~key:(Cache.row_key row ~mix ~scheme)))
             slots));
    Test.make ~name:"digest" (Staged.stage (fun () -> ignore (Ledger.grid_digest cells)));
  ]

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]

let run_bechamel ~name tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let grouped = Test.make_grouped ~name ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let print_bechamel merged =
  let open Notty_unix in
  let window =
    match winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  Bechamel_notty.Unit.add Instance.monotonic_clock
    (Measure.unit Instance.monotonic_clock);
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run merged
  in
  eol img |> output_image

let () =
  let argv = Array.to_list Sys.argv in
  let bench_only = List.mem "--timing-only" argv in
  let find_val flag default =
    let rec find = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> find rest
      | [] -> default
    in
    find argv
  in
  let jobs =
    (* `--jobs N` parallelizes the sweep-backed regenerations. *)
    try int_of_string (find_val "--jobs" "1") with _ -> 1
  in
  if List.mem "--json" argv then begin
    let scale_name = find_val "--scale" "quick" in
    let path = find_val "--out" "BENCH_sim.json" in
    let ledger = not (List.mem "--no-ledger" argv) in
    run_json ~scale_name ~jobs ~path ~ledger ();
    exit 0
  end;
  if not bench_only then regenerate_all ~jobs ();
  heading "Micro-benchmarks (Bechamel, monotonic clock)";
  let groups =
    [
      ("experiments", bench_experiments);
      ("primitives", bench_primitives);
      ("warm-submit", bench_warm_submit);
    ]
  in
  List.iter
    (fun (name, tests) ->
      Printf.printf "\n-- %s --\n%!" name;
      print_bechamel (run_bechamel ~name tests))
    groups
