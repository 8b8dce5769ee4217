(* Declarative (mix x scheme) sweep engine.

   This is the execution core that used to live inline in
   [Common.run_grid]: compile each mix's programs once, then simulate
   every (mix, scheme) cell. Cells are independent, so they are
   dispatched through [Vliw_util.Pool] and run on as many domains as
   requested.

   Determinism is normative: the grid produced with [~jobs:8] is
   bit-identical to [~jobs:1]. Two rules guarantee it:

   - Programs are compiled in the parent domain, per mix, with the same
     RNG derivation regardless of [jobs]; cells only read them.
   - Each mix row gets an independently derived simulation seed
     (SplitMix64 scramble of the master seed and the mix name), fixed
     before any cell runs. All scheme columns within a row share the
     row seed on purpose: schemes are compared on identical workloads
     (same programs, same memory behavior), which is what makes the
     comparison controlled and keeps the parallel/serial scheme
     equivalences (3CCC = C4, 2SC3 = 3SCC) bit-exact in simulation.

   Fault tolerance (both opt-in, off by default):

   - A cell whose simulation raises (or trips [inject_failure], or
     exceeds [cell_timeout_s]) is retried up to [max_retries] times,
     then recorded as a degraded cell — [ipc = nan], [error = Some _],
     rendered as "n/a" — instead of aborting the sweep and discarding
     every completed cell. Retry/degradation counts ride the telemetry
     counters ([sweep.retries] etc.) and the [attempts]/[error] fields.
     Retries are harmless to determinism: a cell simulation is a pure
     function of its row seed, so a retried cell produces the identical
     result.

   - With [checkpoint], every completed cell is journaled (atomic
     temp+rename via [Checkpoint]); with [resume], journaled cells are
     restored — bit-identical, the journal stores raw IPC bits — and
     only the missing cells simulate. A journal whose configuration
     header does not match the requested sweep is ignored.

   Each cell records its own wall-clock time, and an optional progress
   callback (serialized across workers) makes long sweeps observable. *)

module Counters = Vliw_telemetry.Counters
module Report = Vliw_telemetry.Report

(* A sweep column: what one grid column simulates. The classic sweep is
   one static scheme per column; an adaptive column carries a controller
   factory instead, and the cell's scheme name is the column's display
   name ("adaptive", "oracle", ...). The factory is invoked once per
   simulation attempt — controllers are stateful, and a retried cell
   must start from a pristine one to stay a pure function of its row
   seed. *)
type column = {
  col_name : string;  (* display/journal name; must be unique per sweep *)
  col_scheme : Vliw_merge.Scheme.t;  (* initial (or only) scheme *)
  col_policy : string;  (* "static" or a Controller.policy_to_string *)
  col_controller : (unit -> Vliw_sim.Controller.t) option;
}

let static_column (e : Vliw_merge.Catalog.entry) =
  {
    col_name = e.name;
    col_scheme = e.scheme;
    col_policy = "static";
    col_controller = None;
  }

type cell = {
  mix : string;
  scheme : string;
  ipc : float;  (* nan for a degraded cell *)
  elapsed_s : float;  (* wall-clock seconds spent simulating this cell *)
  started_s : float;  (* start offset from the sweep epoch (wall clock) *)
  worker : int;  (* pool worker that simulated the cell *)
  telemetry : Counters.snapshot option;
  attempts : int;  (* simulation attempts; 0 for a cell restored from
                      a checkpoint without re-simulation *)
  error : string option;  (* Some _ iff the cell is degraded *)
}

type progress = { completed : int; total : int; last : cell }

(* Live structured progress stream. Cell_started / Cell_retried /
   Cell_degraded fire inside worker domains; Sweep_started,
   Cell_finished (serialized through the pool's on_result) and
   Sweep_finished fire in the parent. A consumer must therefore be
   domain-safe — [json_logger] serializes writes through a mutex. *)
type event =
  | Sweep_started of { total : int; jobs : int; scale : string; seed : int64 }
  | Cell_started of { mix : string; scheme : string; worker : int }
  | Cell_retried of {
      mix : string;
      scheme : string;
      attempt : int;  (* the attempt that just failed, 1-based *)
      error : string;
    }
  | Cell_degraded of {
      mix : string;
      scheme : string;
      attempts : int;
      error : string;
    }
  | Cell_finished of {
      cell : cell;
      completed : int;
      total : int;
      eta_s : float;  (* nan until one timed cell has completed *)
    }
  | Sweep_finished of { total : int; degraded : int; wall_s : float }

let json_of_event ev =
  let module J = Vliw_util.Json in
  let num v = J.Num v in
  let base name fields =
    J.Obj
      (("ev", J.Str name)
      :: ("ts", num (Unix.gettimeofday ()))
      :: fields)
  in
  match ev with
  | Sweep_started { total; jobs; scale; seed } ->
    base "sweep_started"
      [
        ("total", num (float_of_int total));
        ("jobs", num (float_of_int jobs));
        ("scale", J.Str scale);
        ("seed", J.Str (Printf.sprintf "0x%Lx" seed));
      ]
  | Cell_started { mix; scheme; worker } ->
    base "cell_started"
      [
        ("mix", J.Str mix);
        ("scheme", J.Str scheme);
        ("worker", num (float_of_int worker));
      ]
  | Cell_retried { mix; scheme; attempt; error } ->
    base "cell_retried"
      [
        ("mix", J.Str mix);
        ("scheme", J.Str scheme);
        ("attempt", num (float_of_int attempt));
        ("error", J.Str error);
      ]
  | Cell_degraded { mix; scheme; attempts; error } ->
    base "cell_degraded"
      [
        ("mix", J.Str mix);
        ("scheme", J.Str scheme);
        ("attempts", num (float_of_int attempts));
        ("error", J.Str error);
      ]
  | Cell_finished { cell; completed; total; eta_s } ->
    base "cell_finished"
      [
        ("mix", J.Str cell.mix);
        ("scheme", J.Str cell.scheme);
        ("ipc", num cell.ipc);
        ("elapsed_s", num cell.elapsed_s);
        ("worker", num (float_of_int cell.worker));
        ("attempts", num (float_of_int cell.attempts));
        ("degraded", J.Bool (cell.error <> None));
        ("completed", num (float_of_int completed));
        ("total", num (float_of_int total));
        ("eta_s", num eta_s);
      ]
  | Sweep_finished { total; degraded; wall_s } ->
    base "sweep_finished"
      [
        ("total", num (float_of_int total));
        ("degraded", num (float_of_int degraded));
        ("wall_s", num wall_s);
      ]

let json_logger oc =
  let m = Mutex.create () in
  fun ev ->
    let line = Vliw_util.Json.to_string (json_of_event ev) in
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)

exception Cell_timeout of { elapsed_s : float; limit_s : float }

let () =
  Printexc.register_printer (function
    | Cell_timeout { elapsed_s; limit_s } ->
      Some
        (Printf.sprintf "Sweep.Cell_timeout (%.2fs > limit %.2fs)" elapsed_s
           limit_s)
    | _ -> None)

(* Deterministic fault injection for the fault-tolerance tests: when
   set, a cell attempt at (row, col) raises before simulating iff the
   hook returns [true]. Called once per attempt, possibly from a worker
   domain — install it before the sweep starts and make it domain-safe
   if it is stateful. *)
let inject_failure : (row:int -> col:int -> bool) option ref = ref None

let degraded cells =
  Array.to_list cells |> List.filter (fun c -> c.error <> None)

let total_retries cells =
  Array.fold_left (fun acc c -> acc + max 0 (c.attempts - 1)) 0 cells

let default_scheme_names () =
  List.map
    (fun (e : Vliw_merge.Catalog.entry) -> e.name)
    Vliw_merge.Catalog.four_thread

(* FNV-1a over the mix name, scrambled through one SplitMix64 step, so
   every row's simulation seed is statistically independent of the
   master seed and of the other rows. *)
let row_seed ~seed mix_name =
  let h =
    String.fold_left
      (fun acc c ->
        Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 0x100000001B3L)
      0xCBF29CE484222325L mix_name
  in
  Vliw_util.Rng.next_int64 (Vliw_util.Rng.create (Int64.logxor seed h))

let compile_mix ~machine ~seed mix_name =
  let mix = Vliw_workloads.Mixes.find_exn mix_name in
  (* Same derivation as the historical run_grid: compile once per mix,
     every scheme sees identical programs. *)
  let rng = Vliw_util.Rng.create (Int64.add seed 0x9E37L) in
  List.map
    (fun p ->
      Vliw_compiler.Program.generate ~seed:(Vliw_util.Rng.next_int64 rng) machine p)
    mix.members

(* A mix row prepared outside a grid: the same derivations [run_cells]
   performs per row, packaged so a single cell can be simulated on its
   own (and the compilation shared across many cells of the same row).
   Bit-equality with the in-grid cell is the load-bearing property —
   both paths must call the same compile/seed/config code. *)
type prepared_row = {
  pr_mix : string;
  pr_row_seed : int64;
  pr_programs : Vliw_compiler.Program.t list;
  pr_schedule : Vliw_sim.Multitask.schedule;
  pr_machine : Vliw_isa.Machine.t;
}

let prepare_row ?(scale = Common.Default) ?(seed = Common.default_seed)
    mix_name =
  let machine = Vliw_isa.Machine.default in
  {
    pr_mix = mix_name;
    pr_row_seed = row_seed ~seed mix_name;
    pr_programs = compile_mix ~machine ~seed mix_name;
    pr_schedule = Common.schedule_of_scale scale;
    pr_machine = machine;
  }

let prepared_mix pr = pr.pr_mix

let simulate_prepared pr (column : column) =
  let config = Vliw_sim.Config.make ~machine:pr.pr_machine column.col_scheme in
  let controller = Option.map (fun mk -> mk ()) column.col_controller in
  let metrics =
    Vliw_sim.Multitask.run_programs config ~seed:pr.pr_row_seed
      ~schedule:pr.pr_schedule ?controller pr.pr_programs
  in
  Vliw_sim.Metrics.ipc metrics

let snapshot_with extra base =
  { Counters.counters = List.sort compare (extra @ base); histograms = [] }

let run_cells ?(scale = Common.Default) ?(seed = Common.default_seed)
    ?scheme_names ?columns ?mix_names ?(jobs = 1) ?progress
    ?(telemetry = false) ?(max_retries = 0) ?cell_timeout_s ?checkpoint
    ?(resume = false) ?(log = fun (_ : string) -> ()) ?on_event () =
  let emit ev = match on_event with Some f -> f ev | None -> () in
  let columns =
    match columns with
    | Some cols ->
      if cols = [] then invalid_arg "Sweep.run_cells: empty column list";
      if scheme_names <> None then
        invalid_arg "Sweep.run_cells: ~columns and ~scheme_names are exclusive";
      cols
    | None ->
      let scheme_names =
        match scheme_names with
        | Some names -> names
        | None -> default_scheme_names ()
      in
      List.map
        (fun name -> static_column (Vliw_merge.Catalog.find_exn name))
        scheme_names
  in
  let scheme_names = List.map (fun c -> c.col_name) columns in
  let mix_names =
    match mix_names with Some names -> names | None -> Vliw_workloads.Mixes.names
  in
  let schedule = Common.schedule_of_scale scale in
  let machine = Vliw_isa.Machine.default in
  (* Resolve columns and compile programs up front, in the parent
     domain: cells must not race on catalog lookups or compilation. *)
  let cols = Array.of_list columns in
  let rows =
    List.map
      (fun mix_name ->
        (mix_name, row_seed ~seed mix_name, compile_mix ~machine ~seed mix_name))
      mix_names
  in
  let meta =
    {
      Checkpoint.scale = Common.scale_name scale;
      seed;
      scheme_names;
      mix_names;
      telemetry;
    }
  in
  let journal =
    match checkpoint with
    | None -> None
    | Some path ->
      let fresh () = Checkpoint.create meta in
      let initial =
        if resume then begin
          match Checkpoint.load ~path with
          | Ok j when Checkpoint.meta_equal j.Checkpoint.meta meta -> j
          | Ok _ ->
            log
              (path
             ^ ": checkpoint belongs to a different sweep configuration; \
                starting fresh");
            fresh ()
          | Error msg ->
            if Sys.file_exists path then log (msg ^ "; starting fresh");
            fresh ()
        end
        else fresh ()
      in
      (* Persist the header immediately: a kill before the first cell
         completes must still leave a resumable journal behind. *)
      Checkpoint.save ~path initial;
      Some (ref initial, path)
  in
  let resumed ~mix ~scheme =
    match journal with
    | Some (j, _) when resume -> Checkpoint.find !j ~mix ~scheme
    | _ -> None
  in
  let epoch = Unix.gettimeofday () in
  (* One simulation attempt; raises on an injected fault, a simulator
     exception, or a blown per-cell timeout. The timeout is enforced
     after the fact (a domain cannot be preempted mid-simulation): the
     attempt's result is discarded and the cell retried or degraded. *)
  let attempt_once ~row ~col ~config ~(column : column) ~row_seed
      ~programs () =
    (match !inject_failure with
    | Some f when f ~row ~col ->
      failwith (Printf.sprintf "injected fault in cell (%d, %d)" row col)
    | _ -> ());
    let t0 = Unix.gettimeofday () in
    let counters = if telemetry then Some (Counters.create ()) else None in
    (* A fresh controller per attempt: controllers are stateful, and a
       retried cell must replay from scratch to stay a pure function of
       its row seed. *)
    let controller = Option.map (fun mk -> mk ()) column.col_controller in
    let metrics =
      Vliw_sim.Multitask.run_programs config ~seed:row_seed ~schedule ?counters
        ?controller programs
    in
    Option.iter
      (fun c ->
        if Vliw_sim.Invariants.enforced () then
          Vliw_sim.Invariants.check_attribution (Counters.snapshot c))
      counters;
    let elapsed = Unix.gettimeofday () -. t0 in
    (match cell_timeout_s with
    | Some limit_s when elapsed > limit_s ->
      raise (Cell_timeout { elapsed_s = elapsed; limit_s })
    | _ -> ());
    (metrics, counters, t0, elapsed)
  in
  let simulate_cell ~row ~col ~mix_name ~row_seed ~programs
      ~(column : column) ~worker () =
    let config = Vliw_sim.Config.make ~machine column.col_scheme in
    emit (Cell_started { mix = mix_name; scheme = column.col_name; worker });
    let rec go ~attempt ~timeouts =
      match
        attempt_once ~row ~col ~config ~column ~row_seed ~programs ()
      with
      | metrics, counters, t0, elapsed ->
        Option.iter
          (fun c ->
            if attempt > 1 then
              Counters.add
                (Counters.counter c Report.n_sweep_retries)
                (attempt - 1);
            if timeouts > 0 then
              Counters.add (Counters.counter c Report.n_sweep_timeouts) timeouts)
          counters;
        {
          mix = mix_name;
          scheme = column.col_name;
          ipc = Vliw_sim.Metrics.ipc metrics;
          elapsed_s = elapsed;
          started_s = t0 -. epoch;
          worker;
          telemetry = Option.map Counters.snapshot counters;
          attempts = attempt;
          error = None;
        }
      | exception e ->
        let timeouts =
          match e with Cell_timeout _ -> timeouts + 1 | _ -> timeouts
        in
        if attempt <= max_retries then begin
          emit
            (Cell_retried
               {
                 mix = mix_name;
                 scheme = column.col_name;
                 attempt;
                 error = Printexc.to_string e;
               });
          go ~attempt:(attempt + 1) ~timeouts
        end
        else begin
          emit
            (Cell_degraded
               {
                 mix = mix_name;
                 scheme = column.col_name;
                 attempts = attempt;
                 error = Printexc.to_string e;
               });
          let telemetry_snap =
            if telemetry then
              Some
                (snapshot_with
                   ((Report.n_sweep_degraded, 1)
                   :: (Report.n_sweep_retries, attempt - 1)
                   :: (if timeouts > 0 then [ (Report.n_sweep_timeouts, timeouts) ]
                       else []))
                   [])
            else None
          in
          {
            mix = mix_name;
            scheme = column.col_name;
            ipc = Float.nan;
            elapsed_s = 0.0;
            started_s = Unix.gettimeofday () -. epoch;
            worker;
            telemetry = telemetry_snap;
            attempts = attempt;
            error = Some (Printexc.to_string e);
          }
        end
    in
    go ~attempt:1 ~timeouts:0
  in
  let restore_cell ~(record : Checkpoint.record) ~worker =
    let telemetry_snap =
      if telemetry then
        Some
          (snapshot_with
             [ (Report.n_sweep_resumed, 1) ]
             (Option.value ~default:[] record.counters))
      else None
    in
    {
      mix = record.mix;
      scheme = record.scheme;
      ipc = record.ipc;
      elapsed_s = 0.0;
      started_s = Unix.gettimeofday () -. epoch;
      worker;
      telemetry = telemetry_snap;
      attempts = 0;
      error = None;
    }
  in
  (* One task per cell; a journaled cell is restored instead of
     simulated. *)
  let tasks =
    Array.of_list
      (List.concat
         (List.mapi
            (fun row (mix_name, row_seed, programs) ->
              List.init (Array.length cols) (fun col ~worker ->
                  let column = cols.(col) in
                  match resumed ~mix:mix_name ~scheme:column.col_name with
                  | Some record -> restore_cell ~record ~worker
                  | None ->
                    simulate_cell ~row ~col ~mix_name ~row_seed ~programs
                      ~column ~worker ()))
            rows))
  in
  let row_seed_of_mix =
    let seeds = List.map (fun (m, s, _) -> (m, s)) rows in
    fun mix -> List.assoc mix seeds
  in
  (* Runs inside the pool's serialized result callback: journal the
     fresh cell (atomic rewrite), then report progress. A journal write
     failure (unwritable path, full disk) aborts the sweep with the
     real error rather than silently dropping checkpoints. *)
  let journal_cell (cell : cell) =
    match journal with
    | Some (j, path) when cell.error = None ->
      if Checkpoint.find !j ~mix:cell.mix ~scheme:cell.scheme = None then begin
        j :=
          Checkpoint.add !j
            {
              Checkpoint.mix = cell.mix;
              scheme = cell.scheme;
              row_seed = row_seed_of_mix cell.mix;
              ipc = cell.ipc;
              attempts = cell.attempts;
              counters =
                Option.map (fun (s : Counters.snapshot) -> s.counters)
                  cell.telemetry;
            };
        Checkpoint.save ~path !j
      end
    | _ -> ()
  in
  (* Worker count the pool will actually use, for the ETA heuristic. *)
  let effective_jobs =
    if jobs <= 0 then Domain.recommended_domain_count () else jobs
  in
  let n_schemes = Array.length cols in
  let total_cells = n_schemes * List.length rows in
  let on_result =
    let completed = ref 0 in
    let elapsed_sum = ref 0.0 and timed = ref 0 in
    Some
      (fun _i (res : (cell, exn) result) ->
        match res with
        | Error _ -> () (* repackaged as a degraded cell below *)
        | Ok cell ->
          journal_cell cell;
          incr completed;
          if cell.attempts > 0 && cell.error = None then begin
            (* Restored and degraded cells carry no useful timing;
               ETA calibrates on genuinely simulated cells only. *)
            elapsed_sum := !elapsed_sum +. cell.elapsed_s;
            incr timed
          end;
          (if on_event <> None then
             let eta_s =
               if !timed = 0 then Float.nan
               else
                 !elapsed_sum /. float_of_int !timed
                 *. float_of_int (total_cells - !completed)
                 /. float_of_int effective_jobs
             in
             emit
               (Cell_finished
                  { cell; completed = !completed; total = total_cells; eta_s }));
          match progress with
          | None -> ()
          | Some f -> f { completed = !completed; total = total_cells; last = cell })
  in
  emit
    (Sweep_started
       {
         total = total_cells;
         jobs = effective_jobs;
         scale = Common.scale_name scale;
         seed;
       });
  (* [simulate_cell] already contains every expected failure, so a task
     exception here means the harness itself broke (e.g. the journal
     write raised). [run_results] still isolates it to its task. *)
  let results = Vliw_util.Pool.run_results ~jobs ?on_result tasks in
  let degraded_cell ~mix_name ~(column : column) e =
    {
      mix = mix_name;
      scheme = column.col_name;
      ipc = Float.nan;
      elapsed_s = 0.0;
      started_s = 0.0;
      worker = 0;
      telemetry = None;
      attempts = 0;
      error = Some (Printexc.to_string e);
    }
  in
  let cells =
    Array.mapi
      (fun idx -> function
        | Ok cell -> cell
        | Error e ->
          let mix_name, _, _ = List.nth rows (idx / n_schemes) in
          degraded_cell ~mix_name ~column:cols.(idx mod n_schemes) e)
      results
  in
  emit
    (Sweep_finished
       {
         total = Array.length cells;
         degraded =
           Array.fold_left
             (fun acc c -> acc + (if c.error <> None then 1 else 0))
             0 cells;
         wall_s = Unix.gettimeofday () -. epoch;
       });
  (scheme_names, mix_names, cells)

let grid_of_cells ~scheme_names ~mix_names cells =
  let n_schemes = List.length scheme_names in
  let ipc =
    Array.init (List.length mix_names) (fun i ->
        Array.init n_schemes (fun j -> cells.((i * n_schemes) + j).ipc))
  in
  Common.make_grid ~scheme_names ~mix_names ~ipc

let run ?scale ?seed ?scheme_names ?mix_names ?jobs ?progress
    ?max_retries ?cell_timeout_s ?checkpoint ?resume ?log ?on_event () =
  let scheme_names, mix_names, cells =
    run_cells ?scale ?seed ?scheme_names ?mix_names ?jobs ?progress
      ?max_retries ?cell_timeout_s ?checkpoint ?resume ?log ?on_event ()
  in
  grid_of_cells ~scheme_names ~mix_names cells

let total_elapsed_s cells =
  Array.fold_left (fun acc c -> acc +. c.elapsed_s) 0.0 cells

let merged_telemetry cells =
  Array.fold_left
    (fun acc c ->
      match c.telemetry with
      | None -> acc
      | Some s -> Counters.merge acc s)
    Counters.empty cells

let chrome_trace ?(process_name = "vliwsim sweep") cells =
  let spans =
    Array.to_list cells
    |> List.map (fun c ->
           {
             Vliw_telemetry.Chrome_trace.lane = c.worker;
             name = Printf.sprintf "%s/%s" c.mix c.scheme;
             start_us = c.started_s *. 1e6;
             dur_us = c.elapsed_s *. 1e6;
             args =
               [
                 ("mix", c.mix);
                 ("scheme", c.scheme);
                 ("ipc", Common.ipc_string c.ipc);
               ];
           })
  in
  let lane_names =
    Array.fold_left (fun acc c -> max acc c.worker) 0 cells |> fun hi ->
    List.init (hi + 1) (fun w -> (w, Printf.sprintf "worker %d" w))
  in
  Vliw_telemetry.Chrome_trace.of_spans ~process_name ~lane_names spans

let telemetry_csv cells =
  let rows =
    Array.to_list cells
    |> List.concat_map (fun c ->
           match c.telemetry with
           | None -> []
           | Some s ->
             List.map
               (fun (name, v) -> [ c.mix; c.scheme; name; string_of_int v ])
               s.Counters.counters)
  in
  ([ "mix"; "scheme"; "counter"; "value" ], rows)
