(* The daemon: one select-driven event loop, no helper threads.

   Shape of a turn:
   1. select over the listeners and every connected client (zero
      timeout while cold cells are queued — the loop must not sleep on
      idle sockets while there is work to run);
   2. accept / read: bytes feed each client's NDJSON reader, completed
      lines become requests, framing errors become error replies
      (connection kept — rejection is per-line);
   3. if the queue is non-empty, plan ONE batch (Scheduler.plan over a
      snapshot of the queue) and run it on the Domain pool.

   Batches are the responsiveness unit: a batch holds at most [jobs]
   cells, so a higher-priority submission arriving mid-sweep preempts
   at the next batch boundary, and new clients wait at most one batch
   for their accept/cache-hit replies. Cache hits never enter the
   queue at all — they are answered synchronously at submit time.

   Socket writes happen only in the loop's own domain (results are
   processed after the pool barrier returns), so no send is ever
   concurrent with another and replies of one client stay ordered. A
   client that dies mid-job orphans the job: it keeps running (the
   results still feed the cache and the ledger) with its sends
   dropped. *)

module J = Vliw_util.Json
module Ndjson = Vliw_util.Ndjson
module Log = Vliw_util.Log
module E = Vliw_experiments
module Ledger = Vliw_telemetry.Ledger
module Counters = Vliw_telemetry.Counters
module Span = Vliw_telemetry.Span

type config = {
  socket_path : string option;
  tcp_port : int option;
  runs_dir : string;
  jobs : int;
  no_ledger : bool;
  metrics_out : string option;
  max_line_bytes : int;
  max_inflight : int;
  max_requests : int;
  max_jobs : int option;
  handle_signals : bool;
  log : Log.t;
  tracer : Span.collector option;
  trace_out : string option;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    runs_dir = Ledger.default_dir;
    jobs = 1;
    no_ledger = false;
    metrics_out = None;
    max_line_bytes = 1 lsl 20;
    max_inflight = 4;
    max_requests = 10_000;
    max_jobs = None;
    handle_signals = false;
    log = Log.null;
    tracer = None;
    trace_out = None;
  }

(* --- service counters -------------------------------------------------- *)

(* Process-global so [metrics_exposition] can be scraped without a
   handle on the running loop; [run] resets them on entry (one daemon
   per process is the deployment shape, and sequential test servers
   want fresh numbers). *)
type stats = {
  mutable requests : int;
  mutable rejected : int;
  mutable submits : int;
  mutable jobs_completed : int;
  mutable cells_cached : int;
  mutable cells_simulated : int;
  mutable cells_degraded : int;
  mutable cache_preloaded : int;
  mutable clients_accepted : int;
  (* gauges, refreshed by the loop *)
  mutable queue_depth : int;
  mutable clients_now : int;
  mutable cache_cells : int;
}

let stats =
  {
    requests = 0;
    rejected = 0;
    submits = 0;
    jobs_completed = 0;
    cells_cached = 0;
    cells_simulated = 0;
    cells_degraded = 0;
    cache_preloaded = 0;
    clients_accepted = 0;
    queue_depth = 0;
    clients_now = 0;
    cache_cells = 0;
  }

(* Span latencies observed into per-kind histograms; process-global for
   the same scrape-without-a-handle reason as [stats]. *)
let span_registry = ref (Counters.create ())

let reset_stats () =
  stats.requests <- 0;
  stats.rejected <- 0;
  stats.submits <- 0;
  stats.jobs_completed <- 0;
  stats.cells_cached <- 0;
  stats.cells_simulated <- 0;
  stats.cells_degraded <- 0;
  stats.cache_preloaded <- 0;
  stats.clients_accepted <- 0;
  stats.queue_depth <- 0;
  stats.clients_now <- 0;
  stats.cache_cells <- 0;
  span_registry := Counters.create ()

let counters_list () =
  [
    ("service.cache.preloaded", stats.cache_preloaded);
    ("service.cells.cached", stats.cells_cached);
    ("service.cells.degraded", stats.cells_degraded);
    ("service.cells.simulated", stats.cells_simulated);
    ("service.clients.accepted", stats.clients_accepted);
    ("service.jobs.completed", stats.jobs_completed);
    ("service.requests", stats.requests);
    ("service.requests.rejected", stats.rejected);
    ("service.submits", stats.submits);
  ]

let gauges_list () =
  [
    ("service.cache.cells", float_of_int stats.cache_cells);
    ("service.clients", float_of_int stats.clients_now);
    ("service.queue.depth", float_of_int stats.queue_depth);
  ]

let metrics_exposition () =
  Vliw_telemetry.Openmetrics.render
    ~labels:[ ("component", "service") ]
    ~snapshot:
      {
        Counters.counters = counters_list ();
        histograms = (Counters.snapshot !span_registry).Counters.histograms;
      }
    ~gauges:(gauges_list ()) ()

(* --- jobs -------------------------------------------------------------- *)

type slot_result = {
  r_ipc : float;  (* nan for a degraded cell *)
  r_cached : bool;
  r_elapsed : float;
  r_worker : int;
  r_error : string option;
}

type job = {
  j_id : string;
  j_tag : string;
  j_client : int;  (* client id; sends are dropped once it is gone *)
  j_priority : int;
  j_arrival : int;
  j_scale : E.Common.scale;
  j_seed : int64;
  j_schemes : string list;
  j_mixes : string list;
  j_slots : (string * string) array;  (* mix-major (mix, scheme) *)
  j_results : slot_result option array;
  mutable j_pending : int list;  (* undispatched cold slot indices *)
  mutable j_remaining : int;
  mutable j_cached : int;
  mutable j_simulated : int;
  mutable j_degraded : int;
  j_t0 : float;
  (* tracing: (trace id, client parent span, client asked) when the job
     is traced — either the request carried ids or server tracing is on.
     Spans only ride the "done" reply when the client asked. *)
  j_trace : (int64 * int64 option * bool) option;
  j_root : int64;  (* preallocated submit-span id; children hang here *)
  j_t0c : float;  (* tracer-clock sibling of [j_t0] *)
  mutable j_sched : bool;  (* queue_wait + schedule recorded already *)
  mutable j_spans : Span.t list;  (* this job's spans, newest first *)
}

type client = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_reader : Ndjson.reader;
  mutable c_inflight : int;
  mutable c_requests : int;
  mutable c_closed : bool;
}

let with_fields extra = function
  | J.Obj fields -> J.Obj (extra @ fields)
  | other -> other

(* --- the loop ---------------------------------------------------------- *)

let run cfg =
  if cfg.socket_path = None && cfg.tcp_port = None then
    invalid_arg "Server.run: no listener configured (socket or tcp)";
  reset_stats ();
  let effective_jobs =
    if cfg.jobs <= 0 then Vliw_util.Pool.auto_jobs () else cfg.jobs
  in
  let cache = Cache.create () in
  stats.cache_preloaded <- Cache.preload cache ~dir:cfg.runs_dir;
  stats.cache_cells <- Cache.size cache;
  Log.info cfg.log "cache preloaded"
    [
      ("cells", Log.I stats.cache_preloaded);
      ("ledger", Log.S (Ledger.ledger_path ~dir:cfg.runs_dir));
    ];
  (* The collector always exists (per-request tracing works even on an
     untraced daemon); it only accumulates spans for traced jobs, so an
     untraced deployment records nothing. *)
  let tracer =
    match cfg.tracer with
    | Some c -> c
    | None -> Span.collector ~seed:0x5e21e5713ea11L ()
  in
  let server_traced = cfg.tracer <> None || cfg.trace_out <> None in
  let job_span job ?parent ~kind ~name ~lane ~start_s ~dur_s () =
    match job.j_trace with
    | None -> ()
    | Some (trace, _, _) ->
      let sp =
        Span.record tracer ~trace ?parent ~kind ~name ~lane ~start_s ~dur_s ()
      in
      job.j_spans <- sp :: job.j_spans
  in
  (* Rows compiled once and shared across jobs; flushed wholesale when
     over budget (the Memo idiom — bounded without an eviction order). *)
  let prepared : (string * int64 * string, E.Sweep.prepared_row) Hashtbl.t =
    Hashtbl.create 64
  in
  let prepared_row ~scale ~seed mix =
    let key = (E.Common.scale_name scale, seed, mix) in
    match Hashtbl.find_opt prepared key with
    | Some pr -> pr
    | None ->
      if Hashtbl.length prepared >= 256 then Hashtbl.reset prepared;
      let pr = E.Sweep.prepare_row ~scale ~seed mix in
      Hashtbl.add prepared key pr;
      pr
  in
  let draining = ref false in
  if cfg.handle_signals then begin
    let drain _ = draining := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain)
  end;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* listeners *)
  let listeners = ref [] in
  let add_listener fd = listeners := fd :: !listeners in
  Option.iter
    (fun path ->
      (match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let dir = Filename.dirname path in
      if dir <> "." && not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 16
       with e ->
         Unix.close fd;
         raise e);
      add_listener fd;
      Log.info cfg.log "listening" [ ("socket", Log.S path) ])
    cfg.socket_path;
  Option.iter
    (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
         Unix.listen fd 16
       with e ->
         Unix.close fd;
         raise e);
      add_listener fd;
      Log.info cfg.log "listening"
        [ ("tcp", Log.S (Printf.sprintf "127.0.0.1:%d" port)) ])
    cfg.tcp_port;
  (* client and job state *)
  let clients : (int, client) Hashtbl.t = Hashtbl.create 16 in
  let next_client = ref 0 in
  let next_job = ref 0 in
  let next_arrival = ref 0 in
  let queue : job list ref = ref [] in
  let refresh_gauges () =
    stats.queue_depth <- List.length !queue;
    stats.clients_now <- Hashtbl.length clients;
    stats.cache_cells <- Cache.size cache
  in
  let write_metrics () =
    Option.iter
      (fun path ->
        refresh_gauges ();
        try Vliw_util.Atomic_io.write_file ~path (metrics_exposition ())
        with e ->
          Log.warn cfg.log "could not write metrics"
            [ ("path", Log.S path); ("err", Log.S (Printexc.to_string e)) ])
      cfg.metrics_out
  in
  let close_client c =
    if not c.c_closed then begin
      c.c_closed <- true;
      Hashtbl.remove clients c.c_id;
      try Unix.close c.c_fd with Unix.Unix_error _ -> ()
    end
  in
  let send c doc =
    if not c.c_closed then begin
      let line = Ndjson.line doc in
      let len = String.length line in
      let rec push off =
        if off < len then begin
          let n = Unix.write_substring c.c_fd line off (len - off) in
          push (off + n)
        end
      in
      try push 0
      with Unix.Unix_error _ ->
        (* peer gone mid-write: drop the client, keep its jobs *)
        close_client c
    end
  in
  let send_to_client_id id doc =
    match Hashtbl.find_opt clients id with
    | Some c -> send c doc
    | None -> ()
  in
  let send_error c ?job msg =
    stats.rejected <- stats.rejected + 1;
    send c
      (J.Obj
         (("reply", J.Str "error")
         :: ((match job with Some id -> [ ("job", J.Str id) ] | None -> [])
            @ [ ("error", J.Str msg) ])))
  in
  let emit_event job ?(extra = []) ev =
    send_to_client_id job.j_client
      (with_fields (("job", J.Str job.j_id) :: extra) (E.Sweep.json_of_event ev))
  in
  let emit_cell job idx (r : slot_result) =
    let mix, scheme = job.j_slots.(idx) in
    let cell =
      {
        E.Sweep.mix;
        scheme;
        ipc = r.r_ipc;
        elapsed_s = r.r_elapsed;
        started_s = Unix.gettimeofday () -. job.j_t0;
        worker = r.r_worker;
        telemetry = None;
        attempts = (if r.r_cached then 0 else 1);
        error = r.r_error;
      }
    in
    let total = Array.length job.j_slots in
    emit_event job
      ~extra:[ ("cached", J.Bool r.r_cached) ]
      (E.Sweep.Cell_finished
         {
           cell;
           completed = total - job.j_remaining;
           total;
           eta_s = Float.nan;
         })
  in
  let record_result job idx (r : slot_result) =
    job.j_results.(idx) <- Some r;
    job.j_remaining <- job.j_remaining - 1;
    if r.r_cached then begin
      job.j_cached <- job.j_cached + 1;
      stats.cells_cached <- stats.cells_cached + 1
    end
    else if r.r_error <> None then begin
      job.j_degraded <- job.j_degraded + 1;
      stats.cells_degraded <- stats.cells_degraded + 1
    end
    else begin
      job.j_simulated <- job.j_simulated + 1;
      stats.cells_simulated <- stats.cells_simulated + 1;
      let mix, scheme = job.j_slots.(idx) in
      Cache.add cache
        ~key:
          (Cache.cell_key
             ~scale:(E.Common.scale_name job.j_scale)
             ~seed:job.j_seed ~mix ~scheme)
        ~ipc:r.r_ipc
    end;
    emit_cell job idx r
  in
  let completed_jobs = ref 0 in
  (* Held until shutdown, so a warm submit's append reads nothing back
     from the ledger. The file is opened by the first append. *)
  let ledger = Ledger.Writer.open_ ~dir:cfg.runs_dir in
  let finalize job =
    let wall_s = Unix.gettimeofday () -. job.j_t0 in
    let cells =
      Array.mapi
        (fun i (mix, scheme) ->
          let r =
            match job.j_results.(i) with
            | Some r -> r
            | None -> assert false (* finalize requires j_remaining = 0 *)
          in
          {
            Ledger.mix;
            scheme;
            ipc = r.r_ipc;
            elapsed_s = r.r_elapsed;
            started_s = 0.0;
            worker = r.r_worker;
            attempts = (if r.r_cached then 0 else 1);
            degraded = r.r_error <> None;
          })
        job.j_slots
    in
    let mean =
      let sum = ref 0.0 and n = ref 0 in
      Array.iter
        (fun (c : Ledger.cell) ->
          if not (Float.is_nan c.ipc) then begin
            sum := !sum +. c.ipc;
            incr n
          end)
        cells;
      if !n = 0 then Float.nan else !sum /. float_of_int !n
    in
    let record =
      Ledger.make
        ~counters:
          [
            ("service.cells.cached", job.j_cached);
            ("service.cells.degraded", job.j_degraded);
            ("service.cells.simulated", job.j_simulated);
          ]
        ~gauges:
          ((if Float.is_nan mean then [] else [ ("ipc.mean", mean) ])
          @ Span.latency_gauges (List.rev job.j_spans))
        ~cells ~cmd:"serve"
        ~label:(if job.j_tag = "" then job.j_id else job.j_tag)
        ~scale:(E.Common.scale_name job.j_scale)
        ~seed:job.j_seed ~jobs:effective_jobs ~scheme_names:job.j_schemes
        ~mix_names:job.j_mixes ~wall_s ()
    in
    let digest = Ledger.grid_digest cells in
    let run_id =
      if cfg.no_ledger then None
      else begin
        let t_app = Span.now tracer in
        match Ledger.Writer.append ~digest ledger record with
        | r ->
          job_span job ~parent:job.j_root ~kind:Span.Ledger_append
            ~name:job.j_id ~lane:"server" ~start_s:t_app
            ~dur_s:(Span.now tracer -. t_app) ();
          Some r.Ledger.id
        | exception e ->
          Log.warn cfg.log "could not record serve ledger entry"
            [
              ("job", Log.S job.j_id); ("err", Log.S (Printexc.to_string e));
            ];
          None
      end
    in
    (* Close the root submit span last so every child fits inside it,
       then feed the finished tree to the exposition histograms. *)
    (match job.j_trace with
    | None -> ()
    | Some (trace, parent, _) ->
      let sp =
        {
          Span.trace;
          id = job.j_root;
          parent;
          kind = Span.Submit;
          name = job.j_id;
          lane = "server";
          start_s = job.j_t0c;
          dur_s = Span.now tracer -. job.j_t0c;
        }
      in
      Span.add tracer sp;
      job.j_spans <- sp :: job.j_spans;
      Span.observe_histograms !span_registry (List.rev job.j_spans));
    emit_event job
      (E.Sweep.Sweep_finished
         {
           total = Array.length job.j_slots;
           degraded = job.j_degraded;
           wall_s;
         });
    send_to_client_id job.j_client
      (J.Obj
         ([
            ("reply", J.Str "done");
            ("job", J.Str job.j_id);
            ("tag", J.Str job.j_tag);
          ]
         @ (match run_id with Some id -> [ ("run", J.Str id) ] | None -> [])
         @ [
             ("digest", J.Str digest);
             ("cells", J.Num (float_of_int (Array.length cells)));
             ("cached", J.Num (float_of_int job.j_cached));
             ("simulated", J.Num (float_of_int job.j_simulated));
             ("degraded", J.Num (float_of_int job.j_degraded));
             ("wall_s", J.Num wall_s);
           ]
         @
         match job.j_trace with
         | Some (trace, _, true) ->
           [
             ("trace", J.Str (Span.id_to_hex trace));
             ("spans", Span.list_to_json (List.rev job.j_spans));
           ]
         | _ -> []));
    (match Hashtbl.find_opt clients job.j_client with
    | Some c -> c.c_inflight <- max 0 (c.c_inflight - 1)
    | None -> ());
    stats.jobs_completed <- stats.jobs_completed + 1;
    incr completed_jobs;
    Log.debug cfg.log "job done"
      [
        ("job", Log.S job.j_id);
        ("client", Log.I job.j_client);
        ("cached", Log.I job.j_cached);
        ("simulated", Log.I job.j_simulated);
        ("wall_s", Log.F wall_s);
      ];
    (match cfg.max_jobs with
    | Some n when !completed_jobs >= n ->
      Log.info cfg.log "max-jobs reached; draining" [ ("max_jobs", Log.I n) ];
      draining := true
    | _ -> ());
    write_metrics ()
  in
  (* --- request handling ----------------------------------------------- *)
  let handle_submit c (s : Request.submit) =
    let invalid msg =
      send_error c msg;
      None
    in
    match E.Common.scale_of_name s.scale with
    | None -> invalid (Printf.sprintf "unknown scale %S (quick|default|full)" s.scale)
    | Some scale -> (
      let mixes =
        match s.mixes with [] -> Vliw_workloads.Mixes.names | ms -> ms
      in
      let schemes =
        match s.schemes with
        | [] ->
          (* the fig10 grid: every catalog scheme except the
             single-threaded baseline *)
          List.filter_map
            (fun (e : Vliw_merge.Catalog.entry) ->
              if e.name = "ST" then None else Some e.name)
            Vliw_merge.Catalog.all
        | ss -> ss
      in
      match
        ( List.find_opt (fun m -> Vliw_workloads.Mixes.find m = None) mixes,
          List.find_opt (fun n -> Vliw_merge.Catalog.find n = None) schemes )
      with
      | Some m, _ -> invalid (Printf.sprintf "unknown mix %S" m)
      | _, Some n -> invalid (Printf.sprintf "unknown scheme %S" n)
      | None, None ->
        if !draining then invalid "server is draining; submission refused"
        else if c.c_inflight >= cfg.max_inflight then
          invalid
            (Printf.sprintf "per-client in-flight limit reached (%d)"
               cfg.max_inflight)
        else begin
          incr next_job;
          incr next_arrival;
          stats.submits <- stats.submits + 1;
          let slots =
            Array.of_list
              (List.concat_map
                 (fun mix -> List.map (fun scheme -> (mix, scheme)) schemes)
                 mixes)
          in
          let j_trace =
            match s.trace with
            | Some { Request.trace_id; parent_span } ->
              Some (trace_id, parent_span, true)
            | None ->
              if server_traced then Some (Span.fresh_id tracer, None, false)
              else None
          in
          let job =
            {
              j_id = Printf.sprintf "j%d" !next_job;
              j_tag = s.tag;
              j_client = c.c_id;
              j_priority = s.priority;
              j_arrival = !next_arrival;
              j_scale = scale;
              j_seed = s.seed;
              j_schemes = schemes;
              j_mixes = mixes;
              j_slots = slots;
              j_results = Array.make (Array.length slots) None;
              j_pending = [];
              j_remaining = Array.length slots;
              j_cached = 0;
              j_simulated = 0;
              j_degraded = 0;
              j_t0 = Unix.gettimeofday ();
              j_trace;
              j_root =
                (match j_trace with
                | Some _ -> Span.fresh_id tracer
                | None -> 0L);
              j_t0c = Span.now tracer;
              j_sched = false;
              j_spans = [];
            }
          in
          c.c_inflight <- c.c_inflight + 1;
          Log.debug cfg.log "submit accepted"
            [
              ("job", Log.S job.j_id);
              ("client", Log.I c.c_id);
              ("cells", Log.I (Array.length slots));
              ("traced", Log.B (j_trace <> None));
            ];
          (* Cache pass at submit time, one lookup per slot: hits are
             answered immediately and never occupy a scheduler slot. *)
          let row = Cache.row ~scale:(E.Common.scale_name scale) ~seed:s.seed in
          let hits =
            Array.map
              (fun (mix, scheme) ->
                Cache.find cache ~key:(Cache.row_key row ~mix ~scheme))
              slots
          in
          let cold =
            List.filter
              (fun i -> Option.is_none hits.(i))
              (List.init (Array.length hits) Fun.id)
          in
          job.j_pending <- cold;
          send c
            (J.Obj
               [
                 ("reply", J.Str "accepted");
                 ("job", J.Str job.j_id);
                 ("tag", J.Str job.j_tag);
                 ("cells", J.Num (float_of_int (Array.length slots)));
                 ( "cached",
                   J.Num (float_of_int (Array.length slots - List.length cold))
                 );
                 ("cold", J.Num (float_of_int (List.length cold)));
                 ("queue_depth", J.Num (float_of_int (List.length !queue)));
               ]);
          emit_event job
            (E.Sweep.Sweep_started
               {
                 total = Array.length slots;
                 jobs = effective_jobs;
                 scale = E.Common.scale_name scale;
                 seed = s.seed;
               });
          Array.iteri
            (fun i hit ->
              match hit with
              | Some ipc ->
                record_result job i
                  {
                    r_ipc = ipc;
                    r_cached = true;
                    r_elapsed = 0.0;
                    r_worker = 0;
                    r_error = None;
                  }
              | None -> ())
            hits;
          if job.j_remaining = 0 then begin
            finalize job;
            None
          end
          else Some job
        end)
  in
  let handle_request c req =
    stats.requests <- stats.requests + 1;
    c.c_requests <- c.c_requests + 1;
    if c.c_requests > cfg.max_requests then begin
      send_error c
        (Printf.sprintf "per-client request limit reached (%d)"
           cfg.max_requests);
      close_client c
    end
    else
      match req with
      | Request.Ping -> send c (J.Obj [ ("reply", J.Str "pong") ])
      | Request.Stats ->
        refresh_gauges ();
        let inflight =
          Hashtbl.fold
            (fun _ cl acc ->
              if cl.c_inflight > 0 then
                J.Obj
                  [
                    ("client", J.Num (float_of_int cl.c_id));
                    ("jobs", J.Num (float_of_int cl.c_inflight));
                  ]
                :: acc
              else acc)
            clients []
        in
        let latency =
          match Span.latency_gauges (Span.spans tracer) with
          | [] -> []
          | gs ->
            [ ("latency", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) gs)) ]
        in
        send c
          (J.Obj
             ([
                ("reply", J.Str "stats");
                ("kind", J.Str "service");
                ("queue_depth", J.Num (float_of_int stats.queue_depth));
                ("cache_cells", J.Num (float_of_int stats.cache_cells));
                ("clients", J.Num (float_of_int stats.clients_now));
                ("draining", J.Bool !draining);
                ("inflight", J.List inflight);
                ( "counters",
                  J.Obj
                    (List.map
                       (fun (k, v) -> (k, J.Num (float_of_int v)))
                       (counters_list ())) );
              ]
             @ latency))
      | Request.Metrics ->
        refresh_gauges ();
        send c
          (J.Obj
             [
               ("reply", J.Str "metrics");
               ("exposition", J.Str (metrics_exposition ()));
             ])
      | Request.Shutdown ->
        draining := true;
        send c (J.Obj [ ("reply", J.Str "shutting_down") ])
      | Request.Submit s -> (
        match handle_submit c s with
        | Some job -> queue := !queue @ [ job ]
        | None -> ())
  in
  let handle_line c = function
    | Ok doc -> (
      match Request.of_json doc with
      | Ok req -> handle_request c req
      | Error msg ->
        stats.requests <- stats.requests + 1;
        send_error c msg)
    | Error framing ->
      stats.requests <- stats.requests + 1;
      send_error c (Ndjson.error_message framing)
  in
  let read_client c =
    let buf = Bytes.create 4096 in
    match Unix.read c.c_fd buf 0 (Bytes.length buf) with
    | 0 ->
      (* orderly EOF; an unterminated trailing line is a peer bug but
         there is no one left to tell *)
      ignore (Ndjson.close c.c_reader);
      close_client c
    | n ->
      List.iter (handle_line c)
        (Ndjson.feed c.c_reader ~len:n (Bytes.unsafe_to_string buf))
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_client c
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
  in
  let accept fd =
    match Unix.accept fd with
    | client_fd, _addr ->
      incr next_client;
      stats.clients_accepted <- stats.clients_accepted + 1;
      Log.debug cfg.log "client accepted" [ ("client", Log.I !next_client) ];
      Hashtbl.replace clients !next_client
        {
          c_id = !next_client;
          c_fd = client_fd;
          c_reader = Ndjson.reader ~max_line_bytes:cfg.max_line_bytes ();
          c_inflight = 0;
          c_requests = 0;
          c_closed = false;
        }
    | exception Unix.Unix_error _ -> ()
  in
  (* --- one batch of cold cells ----------------------------------------- *)
  let run_batch () =
    let snapshot =
      List.map
        (fun job ->
          {
            Scheduler.jid = job.j_id;
            priority = job.j_priority;
            arrival = job.j_arrival;
            cells = List.map (fun i -> (job, i)) job.j_pending;
          })
        !queue
    in
    let t_plan0 = Span.now tracer in
    let batch, _ = Scheduler.plan ~capacity:effective_jobs snapshot in
    let t_plan1 = Span.now tracer in
    let batch = Array.of_list batch in
    Array.iter
      (fun (_, (job, i)) ->
        job.j_pending <- List.filter (fun k -> k <> i) job.j_pending)
      batch;
    queue := List.filter (fun job -> job.j_pending <> []) !queue;
    (* A traced job's first batch closes its queue_wait (submit -> this
       planning pass) and pins the plan cost as its schedule span. *)
    Array.iter
      (fun (_, (job, _)) ->
        if not job.j_sched then begin
          job.j_sched <- true;
          job_span job ~parent:job.j_root ~kind:Span.Queue_wait ~name:job.j_id
            ~lane:"server" ~start_s:job.j_t0c
            ~dur_s:(t_plan0 -. job.j_t0c) ();
          job_span job ~parent:job.j_root ~kind:Span.Schedule ~name:job.j_id
            ~lane:"server" ~start_s:t_plan0
            ~dur_s:(t_plan1 -. t_plan0) ()
        end)
      batch;
    (* Prepared rows resolve in this domain (compilation must not race);
       workers only simulate. *)
    let tasks =
      Array.map
        (fun (_, (job, i)) ->
          let mix, scheme = job.j_slots.(i) in
          let pr = prepared_row ~scale:job.j_scale ~seed:job.j_seed mix in
          let column =
            E.Sweep.static_column (Vliw_merge.Catalog.find_exn scheme)
          in
          fun ~worker ->
            let t0 = Unix.gettimeofday () in
            let ipc = E.Sweep.simulate_prepared pr column in
            (ipc, Unix.gettimeofday () -. t0, worker))
        batch
    in
    let results = Vliw_util.Pool.run_results ~jobs:cfg.jobs tasks in
    let touched = Hashtbl.create 8 in
    Array.iteri
      (fun k res ->
        let _, (job, i) = batch.(k) in
        Hashtbl.replace touched job.j_id job;
        match res with
        | Ok (ipc, elapsed, worker) ->
          let mix, scheme = job.j_slots.(i) in
          job_span job ~parent:job.j_root ~kind:Span.Simulate_cell
            ~name:(mix ^ "/" ^ scheme)
            ~lane:(Printf.sprintf "pool %d" worker)
            ~start_s:t_plan1 ~dur_s:elapsed ();
          record_result job i
            {
              r_ipc = ipc;
              r_cached = false;
              r_elapsed = elapsed;
              r_worker = worker;
              r_error = None;
            }
        | Error e ->
          record_result job i
            {
              r_ipc = Float.nan;
              r_cached = false;
              r_elapsed = 0.0;
              r_worker = 0;
              r_error = Some (Printexc.to_string e);
            })
      results;
    Hashtbl.iter
      (fun _ job -> if job.j_remaining = 0 then finalize job)
      touched
  in
  (* --- main loop -------------------------------------------------------- *)
  write_metrics ();
  let cleanup () =
    Ledger.Writer.close ledger;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !listeners;
    Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
      clients;
    Hashtbl.reset clients;
    Option.iter
      (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
      cfg.socket_path
  in
  Fun.protect ~finally:cleanup (fun () ->
      let finished () = !draining && !queue = [] in
      while not (finished ()) do
        let client_fds =
          Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) clients []
        in
        let watch =
          (if !draining then [] else !listeners) @ client_fds
        in
        let timeout = if !queue <> [] then 0.0 else 0.2 in
        (match Unix.select watch [] [] timeout with
        | ready, _, _ ->
          List.iter
            (fun fd ->
              if List.mem fd !listeners then accept fd
              else
                match
                  Hashtbl.fold
                    (fun _ c acc -> if c.c_fd = fd then Some c else acc)
                    clients None
                with
                | Some c -> read_client c
                | None -> ())
            ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        if !queue <> [] then run_batch ()
      done;
      write_metrics ();
      Option.iter
        (fun path ->
          try
            Vliw_util.Atomic_io.write_file ~path
              (Span.to_chrome ~process_name:"vliwsim serve"
                 (Span.spans tracer))
          with e ->
            Log.warn cfg.log "could not write trace"
              [ ("path", Log.S path); ("err", Log.S (Printexc.to_string e)) ])
        cfg.trace_out;
      Log.info cfg.log "shutdown"
        [
          ("jobs", Log.I stats.jobs_completed);
          ("cached", Log.I stats.cells_cached);
          ("simulated", Log.I stats.cells_simulated);
        ])
