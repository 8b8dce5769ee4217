(* The repository's benchmark: four workloads over the fig10 grid, each
   run from this one process, reporting end-to-end metrics with tracing
   off (--trace 0) or per-layer metrics from a traced tour (--trace 1).

     perfbench --workload exp-all|observed|serve|dist --seed N
               --seconds S --trace 0|1

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Everything else goes
   to standard error. See README.md beside this file. *)

module U = Vliw_util
module J = U.Json
module Rng = U.Rng
module E = Vliw_experiments
module Sweep = E.Sweep
module Registry = E.Registry
module Span = Vliw_telemetry.Span
module Ledger = Vliw_telemetry.Ledger
module Counters = Vliw_telemetry.Counters
module Core = Vliw_sim.Core
module Config = Vliw_sim.Config
module Request = Vliw_service.Request
module Coordinator = Vliw_dist.Coordinator
module B = Bench_lib

let now = Unix.gettimeofday
let scale = E.Common.Quick
let mixes = Vliw_workloads.Mixes.names
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- accounting -------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let checks_failed = ref 0
let ops n = attempted := !attempted + n
let failures n = failed := !failed + n

let check what ok =
  ops 1;
  if not ok then begin
    failures 1;
    incr checks_failed;
    log "perfbench: check failed: %s" what
  end

(* --- tracing ---------------------------------------------------------- *)

(* Spans the benchmark records around its calls into each layer. Off
   (None) for end-to-end runs. *)
type tracer = {
  c : Span.collector;
  trace : int64;
  mutable stack : int64 list;  (* open span ids, innermost first *)
}

let tracer : tracer option ref = ref None

let current_span () =
  match !tracer with Some { stack = id :: _; _ } -> Some id | _ -> None

let span ?(kind = Span.Schedule) ?(lane = "bench") name f =
  match !tracer with
  | None -> f ()
  | Some t ->
    let id = Span.fresh_id t.c in
    let parent = current_span () in
    let start_s = Span.now t.c in
    t.stack <- id :: t.stack;
    let finish () =
      t.stack <- List.tl t.stack;
      Span.add t.c
        {
          Span.trace = t.trace;
          id;
          parent;
          kind;
          name;
          lane;
          start_s;
          dur_s = Span.now t.c -. start_s;
        }
    in
    Fun.protect ~finally:finish f

(* Adopt spans recorded by a daemon or the coordinator: roots are
   re-parented under the benchmark's open span, and every span joins the
   benchmark's trace. *)
let adopt spans =
  match !tracer with
  | None -> ()
  | Some t ->
    let parent = current_span () in
    List.iter
      (fun (s : Span.t) ->
        Span.add t.c
          {
            s with
            trace = t.trace;
            parent = (match s.parent with None -> parent | p -> p);
          })
      spans

(* --- child processes ---------------------------------------------------- *)

(* Every process the benchmark starts, until it has been waited for. *)
let children : (int, unit) Hashtbl.t = Hashtbl.create 4

let spawn argv ~stdin ~stdout =
  let pid = Unix.create_process argv.(0) argv stdin stdout Unix.stderr in
  Hashtbl.replace children pid ();
  pid

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  Hashtbl.remove children pid

(* After a failure: kill and wait for whatever is still running. *)
let kill_children () =
  Hashtbl.iter
    (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    children;
  List.iter reap (List.of_seq (Hashtbl.to_seq_keys children))

(* --- small utilities --------------------------------------------------- *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let write_fixture dir (inp : B.inputs) =
  Unix.mkdir dir 0o755;
  write_file (Ledger.ledger_path ~dir) (Lazy.force inp.fixture)

(* Peak resident set of a live process, from /proc. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0

let self_hwm_kb () = vm_hwm_kb "self"

let ms_of_s xs = Array.map (fun s -> 1000.0 *. s) xs

let cell_latencies_ms (cells : Sweep.cell array) =
  ms_of_s (Array.map (fun (c : Sweep.cell) -> c.elapsed_s) cells)

let count_degraded cells = List.length (Sweep.degraded cells)

(* --- the reference grid -------------------------------------------------- *)

let fast_grid ~jobs seed =
  let _, _, cells =
    Sweep.run_cells ~scale ~seed ~scheme_names:E.Fig10.scheme_names ~jobs ()
  in
  cells

(* The fast path at two domains, untimed: every workload's grid must be
   bit-identical to it. *)
let reference_digests seeds =
  List.map
    (fun seed ->
      let d = B.digest (fast_grid ~jobs:2 seed) in
      if seed = E.Common.default_seed then
        check "default-seed quick fig10 digest" (d = B.default_digest);
      (seed, d))
    seeds

(* --- in-process workloads --------------------------------------------------- *)

(* Set-up of an in-process workload: the registry context and the fig10
   rows compiled at the run's seed. *)
let build_context (inp : B.inputs) =
  let ctx = Registry.make_ctx ~scale ~seed:inp.sweep_seed ~jobs:1 () in
  let rows =
    List.map (fun m -> Sweep.prepare_row ~scale ~seed:inp.sweep_seed m) mixes
  in
  ignore (Sys.opaque_identity (ctx, rows))

(* Every standard registry entry, one domain, telemetry off. The shared
   fig10 grid is forced first so that it is timed on its own. *)
let exp_all_pass (inp : B.inputs) =
  let ctx = Registry.make_ctx ~scale ~seed:inp.sweep_seed ~jobs:1 () in
  let fig10 =
    span "registry.fig10_grid" (fun () -> Lazy.force ctx.Registry.fig10)
  in
  List.iter
    (fun e ->
      span ("registry." ^ Registry.id e) (fun () ->
          ignore (Registry.run_entry ctx e : string * _)))
    Registry.standard;
  let cells = fig10.E.Fig10.cells in
  ops (Array.length cells + List.length Registry.standard);
  failures (count_degraded cells);
  cells

(* The fig10 grid with per-cell counters and stall attribution on. *)
let observed_pass (inp : B.inputs) =
  let _, _, cells =
    span ~kind:Span.Simulate_cell "observed.grid" (fun () ->
        Sweep.run_cells ~scale ~seed:inp.sweep_seed
          ~scheme_names:E.Fig10.scheme_names ~jobs:1 ~telemetry:true ())
  in
  ops (Array.length cells);
  failures (count_degraded cells);
  cells

(* --- serve ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  reader : U.Ndjson.reader;
  buf : Bytes.t;
  mutable pending : J.t list;
}

let send conn json =
  let line = J.to_string json ^ "\n" in
  let b = Bytes.unsafe_of_string line in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write conn.fd b off (Bytes.length b - off))
  in
  go 0

let rec recv conn =
  match conn.pending with
  | doc :: rest ->
    conn.pending <- rest;
    doc
  | [] -> (
    match Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf) with
    | 0 -> failwith "serve: connection closed"
    | n ->
      conn.pending <-
        List.filter_map
          (function Ok d -> Some d | Error _ -> None)
          (U.Ndjson.feed conn.reader ~len:n (Bytes.unsafe_to_string conn.buf));
      recv conn)

let str_member k j = Option.bind (J.member k j) J.to_string_opt
let int_member k j = Option.value ~default:0 (Option.bind (J.member k j) J.to_int)

(* Skip event lines and the "accepted" ack up to the request's reply. *)
let rec until_reply conn =
  let doc = recv conn in
  match str_member "reply" doc with
  | None | Some "accepted" -> until_reply conn
  | Some _ -> doc

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
    Some
      { fd; reader = U.Ndjson.reader (); buf = Bytes.create 65536; pending = [] }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

type daemon = { d_pid : int; d_conn : conn; d_dir : string }

(* Spawn `vliwsim serve --jobs 2` on a fresh copy of the fixture ledger
   and wait until it answers a ping: daemon spawn plus cache preload. *)
let start_daemon ~vliwsim (inp : B.inputs) dir =
  Unix.mkdir dir 0o755;
  let runs = Filename.concat dir "runs" in
  write_fixture runs inp;
  let sock = Filename.concat dir "svc.sock" in
  let argv =
    [| vliwsim; "serve"; "--socket"; sock; "--jobs"; "2"; "--runs-dir"; runs;
       "--quiet" |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = spawn argv ~stdin:devnull ~stdout:devnull in
  Unix.close devnull;
  let deadline = now () +. 60.0 in
  let rec wait () =
    match connect sock with
    | Some conn -> conn
    | None ->
      if now () > deadline then failwith "serve: daemon did not come up";
      Unix.sleepf 0.002;
      wait ()
  in
  let conn = wait () in
  send conn (Request.to_json Request.Ping);
  ignore (until_reply conn : J.t);
  { d_pid = pid; d_conn = conn; d_dir = dir }

let stop_daemon d =
  send d.d_conn (Request.to_json Request.Shutdown);
  (try ignore (until_reply d.d_conn : J.t) with Failure _ -> ());
  Unix.close d.d_conn.fd;
  reap d.d_pid;
  rm_rf d.d_dir

type submit_reply = {
  s_digest : string;
  s_cells : int;
  s_cached : int;
  s_simulated : int;
}

let submit d (inp : B.inputs) tag =
  let trace =
    match !tracer with
    | None -> None
    | Some t -> Some { Request.trace_id = t.trace; parent_span = current_span () }
  in
  send d.d_conn
    (Request.to_json
       (Request.Submit
          {
            Request.default_submit with
            tag;
            scale = E.Common.scale_name scale;
            seed = inp.sweep_seed;
            trace;
          }));
  let doc = until_reply d.d_conn in
  let cells = int_member "cells" doc in
  ops (1 + cells);
  (match str_member "reply" doc with
  | Some "done" -> failures (int_member "degraded" doc)
  | _ ->
    failures 1;
    log "perfbench: serve replied %s" (J.to_string doc));
  (match Option.map Span.list_of_json (J.member "spans" doc) with
  | Some (Ok spans) -> adopt spans
  | _ -> ());
  {
    s_digest = Option.value ~default:"" (str_member "digest" doc);
    s_cells = cells;
    s_cached = int_member "cached" doc;
    s_simulated = int_member "simulated" doc;
  }

type serve_pass = {
  sp_setup_s : float;
  sp_cold_s : float;
  sp_warm_ms : float array;
  sp_hwm_kb : int;
  sp_replies : submit_reply list;  (* cold first *)
}

(* One closed loop on a fresh daemon: a cold submit at a seed the
   fixture does not hold, then warm resubmits of the same grid. *)
let serve_pass ~vliwsim (inp : B.inputs) k =
  let d, setup_s =
    timed (fun () ->
        span ~lane:"client" "serve.setup" (fun () ->
            start_daemon ~vliwsim inp (Printf.sprintf "serve-%d" k)))
  in
  let cold, cold_s =
    timed (fun () ->
        span ~kind:Span.Submit ~lane:"client" "serve.cold_submit" (fun () ->
            submit d inp "cold"))
  in
  let warm =
    List.init B.warm_submits (fun i ->
        timed (fun () ->
            span ~kind:Span.Submit ~lane:"client" "serve.warm_submit" (fun () ->
                submit d inp (Printf.sprintf "warm-%d" i))))
  in
  let hwm = vm_hwm_kb (string_of_int d.d_pid) in
  stop_daemon d;
  let warm_replies = List.map fst warm in
  List.iter
    (fun r ->
      check "warm submit served from cache"
        (r.s_simulated = 0 && r.s_cached = r.s_cells && r.s_cells > 0))
    warm_replies;
  check "cold submit simulated every cell"
    (cold.s_cells > 0 && cold.s_simulated = cold.s_cells);
  {
    sp_setup_s = setup_s;
    sp_cold_s = cold_s;
    sp_warm_ms = ms_of_s (Array.of_list (List.map snd warm));
    sp_hwm_kb = hwm;
    sp_replies = cold :: warm_replies;
  }

let serve_setup_only ~vliwsim inp k =
  let d, dt =
    timed (fun () -> start_daemon ~vliwsim inp (Printf.sprintf "setup-%d" k))
  in
  stop_daemon d;
  dt

(* --- dist ---------------------------------------------------------------------- *)

(* Wait until a worker's Ready greeting is buffered on [fd], without
   consuming it: the coordinator reads it itself. *)
let wait_ready fd =
  let buf = Bytes.create 256 in
  let deadline = now () +. 60.0 in
  let rec go () =
    if now () > deadline then failwith "dist: worker did not greet";
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> go ()
    | _ ->
      let n = Unix.recv fd buf 0 (Bytes.length buf) [ Unix.MSG_PEEK ] in
      if n = 0 then failwith "dist: worker exited before greeting"
      else if not (Bytes.contains (Bytes.sub buf 0 n) '\n') then begin
        Unix.sleepf 0.001;
        go ()
      end
  in
  go ()

(* Two `vliwsim worker` processes on socket pairs, handed to the
   coordinator as attached transports once each has greeted. *)
let spawn_workers ~vliwsim n =
  let ws =
    List.init n (fun _ ->
        let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_close_on_exec mine;
        let pid =
          spawn [| vliwsim; "worker"; "--quiet" |] ~stdin:theirs ~stdout:theirs
        in
        Unix.close theirs;
        (pid, mine))
  in
  List.iter (fun (_, fd) -> wait_ready fd) ws;
  ws

let reap_workers ws = List.iter (fun (pid, _) -> reap pid) ws

type dist_pass = {
  dp_setup_s : float;
  dp_wall_s : float;
  dp_cell_ms : float array;
  dp_workers_kb : int;  (* peak RSS of both workers *)
  dp_grids : (int64 * Sweep.cell array) list;
  dp_stats : Coordinator.stats;
}

let dist_pass ~vliwsim (inp : B.inputs) =
  let ws, setup_s =
    timed (fun () ->
        span "dist.setup" (fun () -> spawn_workers ~vliwsim 2))
  in
  let lat = ref [] in
  let worker_hwm = Hashtbl.create 2 in
  let sample_workers () =
    List.iter
      (fun (pid, _) ->
        let kb = vm_hwm_kb (string_of_int pid) in
        if kb > Option.value ~default:0 (Hashtbl.find_opt worker_hwm pid) then
          Hashtbl.replace worker_hwm pid kb)
      ws
  in
  let on_event = function
    | Sweep.Cell_finished { cell; completed; total; _ } ->
      lat := (1000.0 *. cell.Sweep.elapsed_s) :: !lat;
      if completed = total || completed mod 32 = 0 then sample_workers ()
    | _ -> ()
  in
  let dist_tracer =
    Option.map (fun _ -> Span.collector ~seed:0xd157L ()) !tracer
  in
  let result, wall_s =
    timed (fun () ->
        span ~kind:Span.Submit "dist.grid" (fun () ->
            let r =
              Coordinator.run ~scale ~seeds:inp.dist_seeds
                ~scheme_names:E.Fig10.scheme_names
                {
                  Coordinator.default_config with
                  attached = List.map snd ws;
                  on_event = Some on_event;
                  tracer = dist_tracer;
                }
            in
            Option.iter (fun c -> adopt (Span.spans c)) dist_tracer;
            r))
  in
  reap_workers ws;
  let st = result.Coordinator.d_stats in
  ops (st.cells_simulated + st.shards_dispatched);
  failures (st.cells_degraded + st.shards_requeued);
  {
    dp_setup_s = setup_s;
    dp_wall_s = wall_s;
    dp_cell_ms = Array.of_list !lat;
    dp_workers_kb = Hashtbl.fold (fun _ kb acc -> acc + kb) worker_hwm 0;
    dp_grids = result.d_grids;
    dp_stats = st;
  }

let dist_setup_only ~vliwsim =
  let ws, dt = timed (fun () -> spawn_workers ~vliwsim 2) in
  List.iter (fun (_, fd) -> Unix.close fd) ws;
  reap_workers ws;
  dt

(* --- end-to-end runs --------------------------------------------------------------- *)

let setup_samples = 5

(* Repeat [pass] until [seconds] have been measured, predicting from the
   last pass whether another still fits; always at least one pass. *)
let run_passes ~seconds pass =
  let deadline = now () +. seconds in
  let rec go k acc =
    let r, dt = timed (fun () -> pass k) in
    log "pass %d: %.3f s" k dt;
    let acc = r :: acc in
    if now () +. dt > deadline then List.rev acc else go (k + 1) acc
  in
  go 0 []

type e2e = {
  setups : float list;
  walls : float list;
  latencies : float array;  (* ms, pooled over the run's passes *)
  hwm_kb : int list;
}

let median_l l = B.median (Array.of_list l)

let e2e_metrics r =
  let tail, pct =
    match B.tail r.latencies with
    | Some t -> t
    | None -> failwith "too few latency samples for a tail"
  in
  log "latency tail = p%.1f of %d samples over %d passes" pct
    (Array.length r.latencies) (List.length r.walls);
  [
    { B.name = "setup_s"; value = median_l r.setups; unit_ = "s" };
    { B.name = "wall_s"; value = median_l r.walls; unit_ = "s" };
    { B.name = "latency_p50_ms"; value = B.median r.latencies; unit_ = "ms" };
    { B.name = "latency_tail_ms"; value = tail; unit_ = "ms" };
    {
      B.name = "peak_rss_mb";
      value = median_l (List.map (fun kb -> float_of_int kb /. 1024.0) r.hwm_kb);
      unit_ = "MB";
    };
  ]

(* This process's peak RSS grows with the number of passes, which the
   machine's speed decides; the peak after the first pass does not. *)
let first_pass_hwm = ref 0
let note_first_pass k = if k = 0 then first_pass_hwm := self_hwm_kb ()

let in_process_e2e ~seconds inp pass =
  let setups = List.init setup_samples (fun _ -> snd (timed (fun () -> build_context inp))) in
  let passes =
    run_passes ~seconds (fun k ->
        let r = timed (fun () -> pass inp) in
        note_first_pass k;
        r)
  in
  let refs = reference_digests [ inp.B.sweep_seed ] in
  List.iter
    (fun (cells, _) ->
      check "grid bit-identical to the fast path"
        (B.digest cells = List.assoc inp.B.sweep_seed refs))
    passes;
  {
    setups;
    walls = List.map snd passes;
    latencies = Array.concat (List.map (fun (c, _) -> cell_latencies_ms c) passes);
    hwm_kb = [ !first_pass_hwm ];
  }

let serve_e2e ~vliwsim ~seconds inp =
  ignore (Lazy.force inp.B.fixture : string);
  let passes = run_passes ~seconds (serve_pass ~vliwsim inp) in
  let extra =
    List.init
      (max 0 (setup_samples - List.length passes))
      (serve_setup_only ~vliwsim inp)
  in
  let refs = reference_digests [ inp.B.sweep_seed ] in
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          check "served grid bit-identical to the fast path"
            (r.s_digest = List.assoc inp.B.sweep_seed refs))
        p.sp_replies)
    passes;
  {
    setups = List.map (fun p -> p.sp_setup_s) passes @ extra;
    walls = List.map (fun p -> p.sp_cold_s) passes;
    latencies = Array.concat (List.map (fun p -> p.sp_warm_ms) passes);
    hwm_kb = List.map (fun p -> p.sp_hwm_kb) passes;
  }

let check_dist_grids refs p =
  List.iter
    (fun (seed, cells) ->
      check "dist grid bit-identical to the fast path"
        (B.digest cells = List.assoc seed refs))
    p.dp_grids

let dist_e2e ~vliwsim ~seconds inp =
  let passes =
    run_passes ~seconds (fun k ->
        let p = dist_pass ~vliwsim inp in
        note_first_pass k;
        p)
  in
  let extra =
    List.init
      (max 0 (setup_samples - List.length passes))
      (fun _ -> dist_setup_only ~vliwsim)
  in
  let refs = reference_digests inp.B.dist_seeds in
  List.iter (check_dist_grids refs) passes;
  {
    setups = List.map (fun p -> p.dp_setup_s) passes @ extra;
    walls = List.map (fun p -> p.dp_wall_s) passes;
    latencies = Array.concat (List.map (fun p -> p.dp_cell_ms) passes);
    hwm_kb = List.map (fun p -> !first_pass_hwm + p.dp_workers_kb) passes;
  }

(* --- layer probes ------------------------------------------------------------------ *)

(* Each simulator layer measured alone on inputs recorded from a warm
   simulation of the probe mix, so that a regression names its layer.
   Sizes are fixed, not time-boxed, so two commits do the same work. *)

let probe_schemes = [ "1S"; "C4"; "3CCC"; "3SSS"; "2SC3" ]
let probe_mix = "LLHH"
let warm_cycles = 20_000

type sim = {
  core : Core.t;
  config : Config.t;
  threads : Vliw_sim.Thread_state.t array;  (* installed ones *)
  programs : Vliw_compiler.Program.t list;
}

let make_sim ?counters ~seed name =
  let entry = Vliw_merge.Catalog.find_exn name in
  let config = Config.make entry.scheme in
  let mix = Vliw_workloads.Mixes.find_exn probe_mix in
  let rng = Rng.create seed in
  let programs =
    List.map
      (fun p ->
        Vliw_compiler.Program.generate ~seed:(Rng.next_int64 rng)
          config.Config.machine p)
      mix.members
  in
  let threads =
    Array.of_list
      (List.mapi
         (fun id p ->
           Vliw_sim.Thread_state.create ~id ~seed:(Rng.next_int64 rng) p)
         programs)
  in
  let mem = Vliw_mem.Mem_system.create config.machine in
  let core = Core.create ?counters config mem in
  let n = Config.contexts config in
  let installed = Array.sub threads 0 (min n (Array.length threads)) in
  Core.install core
    (Array.init n (fun i ->
         if i < Array.length installed then Some installed.(i) else None));
  for _ = 1 to warm_cycles do
    Core.step core
  done;
  { core; config; threads = installed; programs }

(* Nanoseconds per cycle and minor-heap words per cycle over [n] steps;
   the words of the two counter reads themselves are subtracted. *)
let time_steps core n =
  let b0 = Gc.minor_words () in
  let b1 = Gc.minor_words () in
  let t0 = now () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Core.step core
  done;
  let w1 = Gc.minor_words () in
  let t1 = now () in
  ((t1 -. t0) *. 1e9 /. float_of_int n, (w1 -. w0 -. (b1 -. b0)) /. float_of_int n)

(* The fast path must not allocate: checked in every run. *)
let check_alloc_free (inp : B.inputs) =
  List.iter
    (fun name ->
      let s = make_sim ~seed:inp.probe_seed name in
      let _, words = time_steps s.core 20_000 in
      check ("allocation-free stepping of " ^ name) (words = 0.0))
    probe_schemes

let ns_per f reps n =
  let t0 = now () in
  for _ = 1 to reps do
    f ()
  done;
  (now () -. t0) *. 1e9 /. float_of_int (reps * n)

type probe = {
  metrics : B.metric list;
  model : B.metric list;
  prep_s : float;  (* compiling every fig10 row once *)
}

let probe_scheme (inp : B.inputs) name =
  let fast = make_sim ~seed:inp.probe_seed name in
  let step_ns, words =
    span ~kind:Span.Simulate_cell ("sim.step." ^ name) (fun () ->
        time_steps fast.core 300_000)
  in
  let observed =
    make_sim ~counters:(Counters.create ()) ~seed:inp.probe_seed name
  in
  let obs_ns, _ =
    span ~kind:Span.Simulate_cell ("sim.step_observed." ^ name) (fun () ->
        time_steps observed.core 100_000)
  in
  (* Candidate tape: what each port offered, cycle by cycle. *)
  let rec_sim = make_sim ~seed:inp.probe_seed name in
  let ports = Config.contexts rec_sim.config in
  let tape =
    Array.init 20_000 (fun _ ->
        let r = Core.step_record rec_sim.core in
        let a = Array.make ports None in
        List.iter
          (fun (t, p) -> if t >= 0 && t < ports then a.(t) <- Some p)
          r.Core.candidates;
        a)
  in
  let cfg = rec_sim.config in
  let module Engine = Vliw_merge.Engine in
  let batch = Engine.Batch.create cfg.machine ~routing:cfg.routing cfg.scheme in
  let replay_batch () =
    for i = 0 to Array.length tape - 1 do
      let ps = tape.(i) in
      Engine.Batch.clear batch;
      for p = 0 to ports - 1 do
        match ps.(p) with
        | Some pk -> Engine.Batch.set_port_packet batch p pk
        | None -> ()
      done;
      Engine.Batch.eval batch ~rotation:(i mod ports)
    done
  in
  replay_batch ();
  let batch_ns =
    span ("merge.batch_eval." ^ name) (fun () ->
        ns_per replay_batch 10 (Array.length tape))
  in
  let memo = Engine.Memo.create cfg.machine ~routing:cfg.routing cfg.scheme in
  let replay_memo () =
    for i = 0 to Array.length tape - 1 do
      ignore
        (Sys.opaque_identity
           (Engine.Memo.select_issue memo ~rotation:(i mod ports) tape.(i)))
    done
  in
  replay_memo ();
  let memo_ns =
    span ("merge.memo_select." ^ name) (fun () ->
        ns_per replay_memo 5 (Array.length tape))
  in
  let met = Core.metrics fast.core ~all_threads:fast.threads in
  let conflict, capacity = Core.reject_counts fast.core in
  ( [
      { B.name = "merge.batch_eval_ns." ^ name; value = batch_ns; unit_ = "ns" };
      { B.name = "merge.memo_select_ns." ^ name; value = memo_ns; unit_ = "ns" };
      { B.name = "sim.step_ns." ^ name; value = step_ns; unit_ = "ns" };
      { B.name = "sim.words_per_cycle." ^ name; value = words; unit_ = "words" };
      { B.name = "sim.step_ns_observed." ^ name; value = obs_ns; unit_ = "ns" };
    ],
    (met, conflict, capacity, fast) )

let probe_isa_mem (sim : sim) =
  let machine = sim.config.machine in
  let instrs =
    Array.concat
      (List.concat_map
         (fun (p : Vliw_compiler.Program.t) ->
           Array.to_list
             (Array.map (fun (b : Vliw_compiler.Program.block) -> b.instrs) p.blocks))
         sim.programs)
  in
  let sig_ns =
    span "isa.signature" (fun () ->
        ns_per
          (fun () ->
            Array.iter
              (fun i -> ignore (Sys.opaque_identity (Vliw_isa.Instr.signature machine i)))
              instrs)
          200 (Array.length instrs))
  in
  let iaddrs = Array.map (fun (i : Vliw_isa.Instr.t) -> i.addr) instrs in
  let daddrs =
    Array.init 100_000 (fun k ->
        Vliw_sim.Thread_state.next_addr sim.threads.(k mod Array.length sim.threads))
  in
  let mem = Vliw_mem.Mem_system.create machine in
  let acc = ref 0 in
  let ifetch_ns =
    span "mem.ifetch" (fun () ->
        ns_per
          (fun () ->
            Array.iter (fun a -> acc := !acc + Vliw_mem.Mem_system.ifetch mem a) iaddrs)
          100 (Array.length iaddrs))
  in
  let daccess_ns =
    span "mem.daccess" (fun () ->
        ns_per
          (fun () ->
            Array.iter (fun a -> acc := !acc + Vliw_mem.Mem_system.daccess mem a) daddrs)
          10 (Array.length daddrs))
  in
  ignore (Sys.opaque_identity !acc);
  [
    { B.name = "isa.signature_ns"; value = sig_ns; unit_ = "ns" };
    { B.name = "mem.ifetch_ns"; value = ifetch_ns; unit_ = "ns" };
    { B.name = "mem.daccess_ns"; value = daccess_ns; unit_ = "ns" };
  ]

(* The same fixed integer loop as bench/main.ml's calibration: lets
   numbers from different hosts be compared. *)
let calibrate () =
  let rng = Rng.create 0x5CA1AB1EL in
  let acc = ref 0 in
  let t0 = now () in
  for _ = 1 to 25_000_000 do
    acc := !acc lxor Rng.int rng 1024
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let median_of reps f = B.median (Array.init reps (fun _ -> snd (timed f)))

let probe_storage (inp : B.inputs) =
  write_fixture "fixture" inp;
  let load_s =
    span ~kind:Span.Ledger_append "telemetry.ledger_load" (fun () ->
        median_of 3 (fun () -> ignore (Ledger.load ~dir:"fixture")))
  in
  let preload_s =
    span "service.preload" (fun () ->
        median_of 3 (fun () ->
            ignore (Vliw_service.Cache.preload (Vliw_service.Cache.create ()) ~dir:"fixture")))
  in
  let record = List.hd (B.fixture_runs inp) in
  let append_s =
    span ~kind:Span.Ledger_append "telemetry.ledger_append" (fun () ->
        median_of 3 (fun () -> ignore (Ledger.append ~dir:"fixture" record)))
  in
  rm_rf "fixture";
  let line =
    J.to_string
      (Request.to_json
         (Request.Submit
            { Request.default_submit with scale = "quick"; seed = inp.sweep_seed }))
  in
  let decode_ns =
    span "service.request_decode" (fun () ->
        ns_per (fun () -> ignore (Sys.opaque_identity (Request.of_line line))) 20_000 1)
  in
  [
    { B.name = "telemetry.ledger_load_ms"; value = 1000.0 *. load_s; unit_ = "ms" };
    { B.name = "telemetry.ledger_append_ms"; value = 1000.0 *. append_s; unit_ = "ms" };
    { B.name = "service.preload_ms"; value = 1000.0 *. preload_s; unit_ = "ms" };
    { B.name = "service.request_decode_us"; value = decode_ns /. 1000.0; unit_ = "us" };
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let run_probes (inp : B.inputs) =
  let per_scheme = List.map (probe_scheme inp) probe_schemes in
  let sims = List.map (fun (_, (_, _, _, s)) -> s) per_scheme in
  let isa_mem = probe_isa_mem (List.nth sims 1) in
  let prep_s =
    span ~kind:Span.Prepare_row "compiler.prepare_rows" (fun () ->
        median_of 3 (fun () ->
            List.iter
              (fun m -> ignore (Sweep.prepare_row ~scale ~seed:inp.sweep_seed m))
              mixes))
  in
  let storage = probe_storage inp in
  let calib = span "util.calibration" calibrate in
  let sum f =
    List.fold_left (fun acc (_, x) -> acc + f x) 0 per_scheme
  in
  let offered =
    sum (fun ((met : Vliw_sim.Metrics.t), c, k, _) -> met.instrs + c + k)
  in
  let model =
    [
      {
        B.name = "model.dcache_miss_ratio";
        value =
          ratio (sum (fun (met, _, _, _) -> met.dcache_misses))
            (sum (fun (met, _, _, _) -> met.dcache_accesses));
        unit_ = "ratio";
      };
      {
        B.name = "model.icache_miss_ratio";
        value =
          ratio (sum (fun (met, _, _, _) -> met.icache_misses))
            (sum (fun (met, _, _, _) -> met.icache_accesses));
        unit_ = "ratio";
      };
      {
        B.name = "model.vertical_waste_ratio";
        value =
          ratio (sum (fun (met, _, _, _) -> met.vertical_waste_cycles))
            (sum (fun (met, _, _, _) -> met.cycles));
        unit_ = "ratio";
      };
      {
        B.name = "model.reject_conflict_ratio";
        value = ratio (sum (fun (_, c, _, _) -> c)) offered;
        unit_ = "ratio";
      };
      {
        B.name = "model.reject_capacity_ratio";
        value = ratio (sum (fun (_, _, k, _) -> k)) offered;
        unit_ = "ratio";
      };
    ]
  in
  {
    metrics =
      List.concat_map fst per_scheme
      @ isa_mem @ storage
      @ [
          {
            B.name = "compiler.prepare_row_ms";
            value = 1000.0 *. prep_s /. float_of_int (List.length mixes);
            unit_ = "ms";
          };
          { B.name = "util.calibration_s"; value = calib; unit_ = "s" };
        ];
    model;
    prep_s;
  }

(* --- the traced tour --------------------------------------------------------------- *)

(* Spans under [root] (transitively), by parent links within one trace. *)
let descendants spans (root : Span.t) =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.t) -> Option.iter (fun p -> Hashtbl.add kids p s) s.parent)
    spans;
  let rec walk acc id =
    List.fold_left
      (fun acc (s : Span.t) -> walk (s :: acc) s.id)
      acc (Hashtbl.find_all kids id)
  in
  walk [] root.id

let durs spans = Array.of_list (List.map (fun (s : Span.t) -> s.dur_s) spans)
let total spans = List.fold_left (fun acc (s : Span.t) -> acc +. s.dur_s) 0.0 spans
let of_kind k = List.filter (fun (s : Span.t) -> s.kind = k)

let find_span spans name =
  match List.find_opt (fun (s : Span.t) -> s.name = name) spans with
  | Some s -> s
  | None -> failwith ("missing span " ^ name)

(* Self time per span name, largest first: where the traced wall went. *)
let print_self_times spans =
  let self = B.self_time spans in
  let tbl = Hashtbl.create 64 in
  (* The benchmark's own spans are keyed by name; spans adopted from a
     daemon or worker by kind and lane, not by their per-cell names. *)
  let key (s : Span.t) =
    match s.lane with
    | "bench" | "client" -> s.name
    | lane ->
      let lane = List.hd (String.split_on_char ' ' lane) in
      Printf.sprintf "%s (%s)" (Span.kind_name s.kind) lane
  in
  List.iter
    (fun (s : Span.t) ->
      let n, d, st =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl (key s))
      in
      Hashtbl.replace tbl (key s) (n + 1, d +. s.dur_s, st +. self s))
    spans;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows = List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a) rows in
  log "%-36s %7s %10s %10s" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, (n, d, st)) -> log "%-36s %7d %10.4f %10.4f" name n d st)
    rows

let grid_mean (cells : Sweep.cell array) =
  Array.fold_left (fun acc (c : Sweep.cell) -> acc +. c.ipc) 0.0 cells
  /. float_of_int (Array.length cells)

(* One pass of [workload], returning the digests of the grids it made. *)
let workload_pass ~vliwsim workload (inp : B.inputs) =
  match workload with
  | "exp-all" -> [ B.digest (exp_all_pass inp) ]
  | "observed" -> [ B.digest (observed_pass inp) ]
  | "serve" ->
    List.map (fun r -> r.s_digest) (serve_pass ~vliwsim inp 99).sp_replies
  | _ ->
    List.map (fun (_, c) -> B.digest c) (dist_pass ~vliwsim inp).dp_grids

let traced_run ~vliwsim ~workload ~trace_out (inp : B.inputs) =
  ignore (Lazy.force inp.fixture : string);
  let untraced_digests, untraced_wall =
    timed (fun () -> workload_pass ~vliwsim workload inp)
  in
  let c = Span.collector ~seed:(Int64.of_int (inp.seed + 1)) () in
  let t = { c; trace = Span.fresh_id c; stack = [] } in
  tracer := Some t;
  let tour name f = timed (fun () -> span ~kind:Span.Submit ("workload." ^ name) f) in
  let probes = span "layer_probes" (fun () -> run_probes inp) in
  let prep_s = probes.prep_s in
  let exp_cells, exp_wall = tour "exp-all" (fun () -> exp_all_pass inp) in
  let obs_cells, obs_wall = tour "observed" (fun () -> observed_pass inp) in
  let pool_cells, pool_wall =
    timed (fun () ->
        span ~kind:Span.Simulate_cell "sweep.pool2" (fun () ->
            fast_grid ~jobs:2 inp.sweep_seed))
  in
  let serve, serve_wall = tour "serve" (fun () -> serve_pass ~vliwsim inp 0) in
  let dist, dist_wall = tour "dist" (fun () -> dist_pass ~vliwsim inp) in
  tracer := None;
  let spans = Span.spans c in
  write_file trace_out (Span.to_chrome ~process_name:"perfbench" spans);
  log "perfbench: trace of %d spans written to %s" (List.length spans) trace_out;
  print_self_times spans;
  (* correctness across the tour *)
  let d0 = B.digest exp_cells in
  let refs = reference_digests inp.dist_seeds in
  check "exp-all grid matches the fast path" (d0 = List.assoc inp.sweep_seed refs);
  check "observed grid bit-identical" (B.digest obs_cells = d0);
  check "two-domain grid bit-identical" (B.digest pool_cells = d0);
  List.iter
    (fun r -> check "served grid bit-identical" (r.s_digest = d0))
    serve.sp_replies;
  check_dist_grids refs dist;
  let traced_digests =
    match workload with
    | "exp-all" -> [ d0 ]
    | "observed" -> [ B.digest obs_cells ]
    | "serve" -> List.map (fun r -> r.s_digest) serve.sp_replies
    | _ -> List.map (fun (_, c) -> B.digest c) dist.dp_grids
  in
  check "traced and untraced grids bit-identical" (traced_digests = untraced_digests);
  (* per-layer metrics *)
  let span_s name = (find_span spans name).dur_s in
  let fig10_grid_s = span_s "registry.fig10_grid" in
  let registry =
    { B.name = "registry.fig10_grid_s"; value = fig10_grid_s; unit_ = "s" }
    :: List.map
         (fun e ->
           let id = Registry.id e in
           { B.name = "registry." ^ id ^ "_s"; value = span_s ("registry." ^ id); unit_ = "s" })
         Registry.standard
  in
  let cell_ms = cell_latencies_ms exp_cells in
  let sim_s = Sweep.total_elapsed_s exp_cells in
  let snap = Sweep.merged_telemetry obs_cells in
  let hits = Counters.count snap "merge.memo.hits"
  and misses = Counters.count snap "merge.memo.misses" in
  let serve_spans = descendants spans (find_span spans "workload.serve") in
  let server_spans = List.filter (fun (s : Span.t) -> s.lane <> "client") serve_spans in
  let served = List.fold_left (fun acc r -> acc + r.s_cells) 0 serve.sp_replies in
  let cached = List.fold_left (fun acc r -> acc + r.s_cached) 0 serve.sp_replies in
  let dist_spans = descendants spans (find_span spans "dist.grid") in
  (* Worker time is what workers report directly under each dispatch. *)
  let dispatches = of_kind Span.Dispatch dist_spans in
  let worker_work =
    List.filter
      (fun (s : Span.t) ->
        List.exists (fun (d : Span.t) -> s.parent = Some d.id) dispatches)
      dist_spans
  in
  let self = B.self_time spans in
  let dispatch_self =
    Array.of_list (List.map self dispatches)
  in
  let untraced_ratio traced = traced /. untraced_wall in
  let traced_wall =
    match workload with
    | "exp-all" -> exp_wall
    | "observed" -> obs_wall
    | "serve" -> serve_wall
    | _ -> dist_wall
  in
  log "perfbench: tracing overhead on %s: %.3f s traced - %.3f s untraced = %+.3f s"
    workload traced_wall untraced_wall (traced_wall -. untraced_wall);
  let ms x = 1000.0 *. x in
  let tail_ms a = match B.tail a with Some (v, _) -> v | None -> Float.nan in
  let claims =
    E.Claims.of_fig10
      (E.Fig10.of_cells ~scheme_names:E.Fig10.scheme_names ~mix_names:mixes exp_cells)
  in
  probes.metrics
  @ [
      { B.name = "compiler.share"; value = prep_s /. (prep_s +. sim_s); unit_ = "ratio" };
      { B.name = "merge.memo_hit_ratio"; value = ratio hits (hits + misses); unit_ = "ratio" };
      { B.name = "sim.cell_ms.p50"; value = B.median cell_ms; unit_ = "ms" };
      { B.name = "sim.cell_ms.tail"; value = tail_ms cell_ms; unit_ = "ms" };
    ]
  @ registry
  @ [
      {
        B.name = "sweep.pool_busy_ratio";
        value = Sweep.total_elapsed_s pool_cells /. (2.0 *. pool_wall);
        unit_ = "ratio";
      };
      { B.name = "telemetry.overhead_ratio"; value = obs_wall /. fig10_grid_s; unit_ = "ratio" };
      {
        B.name = "telemetry.trace_overhead_ratio";
        value = untraced_ratio traced_wall;
        unit_ = "ratio";
      };
      {
        B.name = "service.cache_hit_ratio";
        value = ratio cached served;
        unit_ = "ratio";
      };
      {
        B.name = "service.queue_wait_ms";
        value = ms (B.median (durs (of_kind Span.Queue_wait server_spans)));
        unit_ = "ms";
      };
      {
        B.name = "service.ledger_append_ms";
        value = ms (B.median (durs (of_kind Span.Ledger_append server_spans)));
        unit_ = "ms";
      };
      {
        B.name = "dist.shards";
        value = float_of_int dist.dp_stats.shards_dispatched;
        unit_ = "count";
      };
      {
        B.name = "dist.requeued";
        value = float_of_int dist.dp_stats.shards_requeued;
        unit_ = "count";
      };
      {
        B.name = "dist.rows_prepared";
        value = float_of_int (List.length (of_kind Span.Prepare_row dist_spans));
        unit_ = "count";
      };
      {
        B.name = "dist.worker_busy_ratio";
        value = total worker_work /. (2.0 *. dist.dp_wall_s);
        unit_ = "ratio";
      };
      { B.name = "dist.dispatch_ms"; value = ms (B.median dispatch_self); unit_ = "ms" };
      { B.name = "model.ipc_mean"; value = grid_mean exp_cells; unit_ = "ipc" };
      { B.name = "model.claims_gap_pp"; value = B.claims_gap_pp claims; unit_ = "pp" };
    ]
  @ probes.model

(* --- entry point -------------------------------------------------------------------- *)

let workloads = [ "exp-all"; "observed"; "serve"; "dist" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload exp-all|observed|serve|dist --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv in
  let opt flag =
    let rec go = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let int_opt flag default =
    match opt flag with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let workload = Option.value ~default:"" (opt "--workload") in
  if not (List.mem workload workloads) then usage ();
  let seed = int_opt "--seed" 0 in
  let seconds = float_of_int (int_opt "--seconds" 10) in
  let traced = int_opt "--trace" 0 = 1 in
  let cwd = Sys.getcwd () in
  let absolute p = if Filename.is_relative p then Filename.concat cwd p else p in
  (* vliwsim.exe is built beside this executable, in the same tree. *)
  let vliwsim =
    absolute
      (Filename.concat
         (Filename.dirname (Filename.dirname Sys.executable_name))
         (Filename.concat "bin" "vliwsim.exe"))
  in
  if not (Sys.file_exists vliwsim) then begin
    log "perfbench: %s not found" vliwsim;
    exit 2
  end;
  (* Hermetic: every file a run writes lives in its own directory under
     the build tree, removed at exit; only the trace is kept. *)
  let out_dir = absolute (Filename.concat ".bench_build" "perfbench") in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    [ absolute ".bench_build"; out_dir ];
  let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  Sys.chdir run_dir;
  let inp = B.make_inputs seed in
  let metrics =
    match
      check_alloc_free inp;
      if traced then
        traced_run ~vliwsim ~workload inp
          ~trace_out:
            (Filename.concat out_dir
               (Printf.sprintf "trace-%s-seed%d.json" workload seed))
      else
        e2e_metrics
          (match workload with
          | "exp-all" -> in_process_e2e ~seconds inp exp_all_pass
          | "observed" -> in_process_e2e ~seconds inp observed_pass
          | "serve" -> serve_e2e ~vliwsim ~seconds inp
          | _ -> dist_e2e ~vliwsim ~seconds inp)
    with
    | m -> m
    | exception e ->
      check ("run raised " ^ Printexc.to_string e) false;
      kill_children ();
      []
  in
  Sys.chdir cwd;
  rm_rf run_dir;
  List.iter
    (fun (m : B.metric) ->
      check ("metric name " ^ m.name) (B.name_ok m.name);
      check ("finite " ^ m.name) (Float.is_finite m.value))
    metrics;
  let correct = !checks_failed = 0 in
  List.iter
    (fun (m : B.metric) -> log "%-36s %14.6f %s" m.name m.value m.unit_)
    metrics;
  print_endline
    (J.to_string
       (B.result_json ~correct ~attempted:!attempted ~failed:!failed
          (if correct then metrics else [])));
  exit (if correct then 0 else 1)
