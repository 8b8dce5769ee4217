(* The sweep service: NDJSON framing, the request codec, the
   backfilling batch planner, the content-addressed cell cache, ledger
   gc — and one in-process end-to-end daemon session proving the
   acceptance contract: a sweep submitted twice simulates zero cells
   the second time and both responses are bit-identical to a local run
   of the same configuration. *)

module J = Vliw_util.Json
module Ndjson = Vliw_util.Ndjson
module Request = Vliw_service.Request
module Scheduler = Vliw_service.Scheduler
module Cache = Vliw_service.Cache
module Server = Vliw_service.Server
module Ledger = Vliw_telemetry.Ledger
module E = Vliw_experiments

(* --- NDJSON framing ---------------------------------------------------- *)

let ok_doc = function
  | Ok d -> d
  | Error e -> Alcotest.failf "expected a document, got: %s" (Ndjson.error_message e)

let test_ndjson_reassembly () =
  let r = Ndjson.reader () in
  (* one line split across three feeds, then two lines in one feed *)
  Alcotest.(check int) "partial line yields nothing" 0
    (List.length (Ndjson.feed r {|{"op":|}));
  Alcotest.(check int) "still partial" 0
    (List.length (Ndjson.feed r {|"ping"|}));
  (match Ndjson.feed r "}\n" with
  | [ Ok d ] ->
    Alcotest.(check string) "reassembled doc" {|{"op":"ping"}|} (J.to_string d)
  | other -> Alcotest.failf "expected one doc, got %d results" (List.length other));
  (match Ndjson.feed r "{\"a\":1}\r\n\n{\"b\":2}\n" with
  | [ Ok a; Ok b ] ->
    (* CRLF tolerated, blank line skipped *)
    Alcotest.(check string) "first" {|{"a":1}|} (J.to_string a);
    Alcotest.(check string) "second" {|{"b":2}|} (J.to_string b)
  | rs -> Alcotest.failf "expected two docs, got %d results" (List.length rs));
  Alcotest.(check bool) "clean close" true (Ndjson.close r = None)

let test_ndjson_malformed () =
  let r = Ndjson.reader () in
  (match Ndjson.feed r "{not json}\n{\"ok\":true}\n" with
  | [ Error (Ndjson.Malformed _); Ok d ] ->
    (* a bad line is one error; the stream resyncs at the newline *)
    Alcotest.(check string) "survivor" {|{"ok":true}|} (J.to_string d)
  | rs -> Alcotest.failf "expected [malformed; ok], got %d results" (List.length rs));
  Alcotest.(check bool) "error is explained" true
    (String.length (Ndjson.error_message (Ndjson.Malformed { msg = "x" })) > 0)

let test_ndjson_oversized () =
  let r = Ndjson.reader ~max_line_bytes:8 () in
  let results = Ndjson.feed r (String.make 100 'x' ^ "\ntrue\n") in
  (match results with
  | [ Error (Ndjson.Oversized { limit }) ; Ok d ] ->
    (* exactly one Oversized per over-budget line, next line intact *)
    Alcotest.(check int) "reported limit" 8 limit;
    Alcotest.(check string) "next line parsed" "true" (J.to_string d)
  | rs -> Alcotest.failf "expected [oversized; ok], got %d results" (List.length rs));
  (* the overflow must not have been buffered *)
  let r2 = Ndjson.reader ~max_line_bytes:4 () in
  ignore (Ndjson.feed r2 (String.make 1_000_000 'y'));
  Alcotest.(check bool) "oversized close reports truncation" true
    (Ndjson.close r2 = Some (Error Ndjson.Truncated))

let test_ndjson_truncated () =
  let r = Ndjson.reader () in
  ignore (Ndjson.feed r {|{"op":"ping"|});
  Alcotest.(check bool) "EOF mid-line is Truncated" true
    (Ndjson.close r = Some (Error Ndjson.Truncated));
  Alcotest.(check bool) "close after close is clean" true (Ndjson.close r = None)

(* --- request codec ----------------------------------------------------- *)

let test_request_defaults () =
  let parse s = Request.of_line s in
  (match parse {|{"op":"submit"}|} with
  | Ok (Request.Submit s) ->
    Alcotest.(check string) "default scale" "default" s.scale;
    Alcotest.(check string) "default tag" "" s.tag;
    Alcotest.(check bool) "default seed" true
      (s.seed = E.Common.default_seed);
    Alcotest.(check int) "default priority" 0 s.priority;
    Alcotest.(check (list string)) "default mixes" [] s.mixes
  | _ -> Alcotest.fail "bare submit should parse with defaults");
  (match parse {|{"op":"submit","seed":"0x2a","priority":3}|} with
  | Ok (Request.Submit s) ->
    Alcotest.(check bool) "hex seed" true (s.seed = 42L);
    Alcotest.(check int) "priority" 3 s.priority
  | _ -> Alcotest.fail "hex seed should parse");
  List.iter
    (fun (line, what) ->
      match parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should be rejected" what)
    [
      ({|{"op":"nope"}|}, "unknown op");
      ({|{"noop":true}|}, "missing op");
      ({|{"op":42}|}, "non-string op");
      ({|{"op":"submit","seed":"zebra"}|}, "unparseable seed");
      ({|{"op":"submit","priority":"high"}|}, "non-integer priority");
      ({|{"op":"submit","mixes":"LLHH"}|}, "non-list mixes");
      ({|{"op":"submit","mixes":[1]}|}, "non-string mix entry");
    ]

(* Any request; strings are arbitrary bytes — the JSON layer owns
   escaping. *)
let request_gen =
  let gen_submit =
    QCheck.Gen.(
      let* tag = string_size (int_bound 12) in
      let* scale = oneofl [ "quick"; "default"; "full"; "weird" ] in
      let* seed = ui64 in
      let* priority = int_range (-5) 100 in
      let* mixes = list_size (int_bound 3) (string_size (int_bound 6)) in
      let* schemes = list_size (int_bound 3) (string_size (int_bound 6)) in
      let* trace =
        option
          (map2
             (fun t p -> { Request.trace_id = t; parent_span = p })
             ui64 (option ui64))
      in
      return
        (Request.Submit { tag; scale; seed; priority; mixes; schemes; trace }))
  in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, gen_submit);
          (1, oneofl [ Request.Ping; Request.Stats; Request.Metrics; Request.Shutdown ]);
        ])
  in
  gen

(* Round-trip property: any request encodes to JSON and decodes back to
   itself. *)
let test_request_roundtrip =
  let arb =
    QCheck.make ~print:(fun r -> J.to_string (Request.to_json r)) request_gen
  in
  QCheck.Test.make ~count:200 ~name:"service: request <-> JSON round-trip" arb
    (fun req ->
      match Request.of_line (J.to_string (Request.to_json req)) with
      | Ok req' -> req' = req
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

(* Robustness: arbitrary bytes on the request socket get an error
   reply, never an exception. *)
let request_robustness =
  Tgen.decoder_robustness ~name:"service: Request.of_line"
    ~decode:Request.of_line
    (QCheck.Gen.map (fun r -> J.to_string (Request.to_json r)) request_gen)

(* --- NDJSON robustness --------------------------------------------------- *)

let show_result = function
  | Ok d -> "ok " ^ J.to_string d
  | Error (Ndjson.Oversized _) -> "oversized"
  | Error (Ndjson.Malformed { msg }) -> "malformed " ^ msg
  | Error Ndjson.Truncated -> "truncated"

(* The reader's contract over a whole stream at once: a terminated line
   longer than the budget is one [Oversized]; a blank one yields
   nothing; any other is [Json.parse]'s verdict on it (a final carriage
   return dropped). A non-empty unterminated tail is [Truncated] on
   close. *)
let ndjson_model ~limit stream =
  let rec split = function
    | [] -> ([], "")
    | [ tail ] -> ([], tail)
    | line :: rest ->
      let lines, tail = split rest in
      (line :: lines, tail)
  in
  let lines, tail = split (String.split_on_char '\n' stream) in
  let verdict raw =
    let n = String.length raw in
    if n > limit then Some "oversized"
    else
      let line = if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1) else raw in
      if String.trim line = "" then None
      else
        Some
          (match J.parse line with
          | Ok d -> "ok " ^ J.to_string d
          | Error msg -> show_result (Error (Ndjson.Malformed { msg })))
  in
  (List.filter_map verdict lines, if tail = "" then [] else [ "truncated" ])

(* A stream of request lines (intact, mutated, truncated, random,
   blank, CRLF-terminated or over the budget), an optional unterminated
   tail, the budget, and the cut points the transport delivers it at. *)
let ndjson_stream_gen =
  QCheck.Gen.(
    let request = map (fun r -> J.to_string (Request.to_json r)) request_gen in
    let line =
      frequency
        [
          (3, request);
          (2, Tgen.mutated request);
          (1, Tgen.truncated request);
          (1, Tgen.random_bytes);
          (1, oneofl [ ""; " "; "\r"; " \t\r" ]);
          (1, map (fun l -> l ^ "\r") request);
          (1, map (fun n -> String.make n 'x') (100 -- 400));
        ]
    in
    let* lines = list_size (0 -- 8) line in
    let* tail = oneof [ return ""; line ] in
    let stream = String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ tail in
    let* limit = 1 -- 300 in
    let* cuts = list_size (0 -- 6) (0 -- String.length stream) in
    return (stream, limit, List.sort_uniq compare cuts))

let test_ndjson_chunked_stream =
  QCheck.Test.make ~count:500 ~name:"ndjson: any chunking = the line model"
    (QCheck.make
       ~print:(fun (s, limit, cuts) ->
         Printf.sprintf "%S limit=%d cuts=[%s]" s limit
           (String.concat ";" (List.map string_of_int cuts)))
       ndjson_stream_gen)
    (fun (stream, limit, cuts) ->
      let r = Ndjson.reader ~max_line_bytes:limit () in
      let rec go start cuts acc =
        let stop = match cuts with c :: _ -> c | [] -> String.length stream in
        (* each chunk is a window of the stream, fed through ~off/~len *)
        let acc = acc @ Ndjson.feed r ~off:start ~len:(stop - start) stream in
        match cuts with [] -> acc | _ :: rest -> go stop rest acc
      in
      match go 0 cuts [] with
      | results ->
        let closed = Option.to_list (Ndjson.close r) in
        let expected, tail = ndjson_model ~limit stream in
        List.map show_result results = expected
        && List.map show_result closed = tail
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* --- scheduler --------------------------------------------------------- *)

let job jid ~priority ~arrival cells =
  { Scheduler.jid; priority; arrival; cells }

let test_scheduler_priority_fifo () =
  (* higher priority first; FIFO within a priority *)
  let q =
    [
      job "a" ~priority:0 ~arrival:1 [ 1; 2 ];
      job "b" ~priority:5 ~arrival:2 [ 3 ];
      job "c" ~priority:0 ~arrival:0 [ 4 ];
    ]
  in
  let batch, rest = Scheduler.plan ~capacity:10 q in
  Alcotest.(check (list (pair string int)))
    "dispatch order is rank order"
    [ ("b", 3); ("c", 4); ("a", 1); ("a", 2) ]
    batch;
  Alcotest.(check int) "queue drained" 0 (List.length rest)

let test_scheduler_backfill () =
  (* head job fills the batch; a small job backfills the idle slots
     while a bigger better-ranked one waits whole *)
  let q =
    [
      job "head" ~priority:9 ~arrival:0 [ 1; 2; 3 ];
      job "big" ~priority:5 ~arrival:1 [ 4; 5; 6; 7 ];
      job "small" ~priority:0 ~arrival:2 [ 8 ];
    ]
  in
  let batch, rest = Scheduler.plan ~capacity:4 q in
  Alcotest.(check (list (pair string int)))
    "small job backfills the idle slot"
    [ ("head", 1); ("head", 2); ("head", 3); ("small", 8) ]
    batch;
  (match rest with
  | [ j ] ->
    Alcotest.(check string) "big job waits intact" "big" j.Scheduler.jid;
    Alcotest.(check int) "with all its cells" 4 (List.length j.Scheduler.cells)
  | _ -> Alcotest.fail "exactly one job should remain");
  (* nothing fits whole: the best-ranked leftover fills partially so no
     slot idles *)
  let batch2, rest2 =
    Scheduler.plan ~capacity:2
      [
        job "x" ~priority:1 ~arrival:0 [ 1; 2; 3 ];
        job "y" ~priority:0 ~arrival:1 [ 4; 5; 6 ];
      ]
  in
  Alcotest.(check (list (pair string int)))
    "partial fill from the best-ranked job"
    [ ("x", 1); ("x", 2) ]
    batch2;
  Alcotest.(check int) "both jobs survive" 2 (List.length rest2)

let test_scheduler_edges () =
  Alcotest.(check bool) "zero capacity plans nothing" true
    (fst (Scheduler.plan ~capacity:0 [ job "a" ~priority:0 ~arrival:0 [ 1 ] ]) = []);
  Alcotest.(check bool) "empty queue plans nothing" true
    (Scheduler.plan ~capacity:8 ([] : int Scheduler.job list) = ([], []));
  (* a fully drained head cascades into the next job *)
  let batch, rest =
    Scheduler.plan ~capacity:5
      [
        job "a" ~priority:1 ~arrival:0 [ 1; 2 ];
        job "b" ~priority:0 ~arrival:1 [ 3; 4; 5 ];
      ]
  in
  Alcotest.(check int) "all five dispatched" 5 (List.length batch);
  Alcotest.(check int) "nothing left" 0 (List.length rest)

(* --- cache ------------------------------------------------------------- *)

let mk_run ?(cmd = "exp") ?(policy = "static") ?(label = "t") ~cells () =
  Ledger.make ~cells ~policy ~cmd ~label ~scale:"quick" ~seed:42L ~jobs:1
    ~scheme_names:[ "C4" ] ~mix_names:[ "LLHH" ] ~wall_s:0.1 ()

let mk_cell ?(ipc = 3.25) ?(degraded = false) mix scheme =
  {
    Ledger.mix;
    scheme;
    ipc = (if degraded then Float.nan else ipc);
    elapsed_s = 0.1;
    started_s = 0.0;
    worker = 0;
    attempts = 1;
    degraded;
  }

let temp_dir () =
  let dir = Filename.temp_file "vliwsvc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

(* Ledger fingerprints, grid digests and cache keys share one FNV-1a.
   Their bits are persisted (ledger records, preloaded cache entries),
   so they are pinned: the published FNV-1a test vectors, and golden
   keys recorded before the hash was shared. *)
let test_fnv_bits_pinned () =
  let hex v = Printf.sprintf "%016Lx" v in
  Alcotest.(check string) "empty input is the offset basis" "cbf29ce484222325"
    (hex (Ledger.fnv1a64 Ledger.fnv_offset ""));
  Alcotest.(check string) "FNV-1a(\"a\")" "af63dc4c8601ec8c"
    (hex (Ledger.fnv1a64 Ledger.fnv_offset "a"));
  Alcotest.(check string) "FNV-1a(\"foobar\")" "85944171f73967e8"
    (hex (Ledger.fnv1a64 Ledger.fnv_offset "foobar"));
  Alcotest.(check string) "static fingerprint" "8bbd772fb549881f"
    (Ledger.fingerprint_of ~scale:"quick" ~seed:0xC5EEDL
       ~scheme_names:[ "1S"; "2SC3" ] ~mix_names:[ "LLHH"; "MMMM" ] ());
  Alcotest.(check string) "adaptive fingerprint" "a0759f9d8ce0bc60"
    (Ledger.fingerprint_of ~policy:"adaptive" ~scale:"default" ~seed:7L
       ~scheme_names:[ "C4" ] ~mix_names:[ "HHHH" ] ());
  Alcotest.(check string) "cell key" "da1fae0343fb93fd"
    (Cache.cell_key ~scale:"quick" ~seed:0xC5EEDL ~mix:"LLHH" ~scheme:"2SC3");
  let cell mix scheme ipc attempts degraded =
    {
      Ledger.mix;
      scheme;
      ipc;
      elapsed_s = 0.0;
      started_s = 0.0;
      worker = 0;
      attempts;
      degraded;
    }
  in
  Alcotest.(check string) "grid digest (nan cell included)" "fe00708a4891087f"
    (Ledger.grid_digest
       [| cell "LLHH" "1S" 1.25 1 false; cell "MMMM" "2SC3" Float.nan 2 true |])

let test_cache_keys () =
  let key = Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLHH" ~scheme:"C4" in
  Alcotest.(check string) "key is stable" key
    (Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLHH" ~scheme:"C4");
  let others =
    [
      Cache.cell_key ~scale:"default" ~seed:42L ~mix:"LLHH" ~scheme:"C4";
      Cache.cell_key ~scale:"quick" ~seed:43L ~mix:"LLHH" ~scheme:"C4";
      Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLLL" ~scheme:"C4";
      Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLHH" ~scheme:"1S";
    ]
  in
  List.iter
    (fun k -> Alcotest.(check bool) "every dimension changes the key" false (k = key))
    others

let test_cache_ingestion_policy () =
  Alcotest.(check bool) "exp/static is cacheable" true
    (Cache.cacheable_run (mk_run ~cells:[||] ()));
  Alcotest.(check bool) "serve/static is cacheable" true
    (Cache.cacheable_run (mk_run ~cmd:"serve" ~cells:[||] ()));
  (* `run` seeds the simulation differently; adaptive results depend on
     controller state — neither may feed the content-addressed cache *)
  Alcotest.(check bool) "run records are not cacheable" false
    (Cache.cacheable_run (mk_run ~cmd:"run" ~cells:[||] ()));
  Alcotest.(check bool) "adaptive records are not cacheable" false
    (Cache.cacheable_run (mk_run ~policy:"greedy" ~cells:[||] ()))

let test_cache_preload () =
  let dir = temp_dir () in
  ignore (Ledger.append ~dir (mk_run ~cells:[| mk_cell "LLHH" "C4" |] ()));
  ignore
    (Ledger.append ~dir
       (mk_run ~cmd:"run" ~cells:[| mk_cell "LLHH" "1S" |] ()));
  ignore
    (Ledger.append ~dir
       (mk_run ~cells:[| mk_cell ~degraded:true "LLLL" "C4" |] ()));
  let cache = Cache.create () in
  let n = Cache.preload cache ~dir in
  (* only the exp/static, non-degraded cell makes it in *)
  Alcotest.(check int) "one cell preloaded" 1 n;
  Alcotest.(check int) "cache size" 1 (Cache.size cache);
  Alcotest.(check bool) "the right cell" true
    (Cache.find cache
       ~key:(Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLHH" ~scheme:"C4")
    = Some 3.25);
  Alcotest.(check bool) "degraded cell absent" true
    (Cache.find cache
       ~key:(Cache.cell_key ~scale:"quick" ~seed:42L ~mix:"LLLL" ~scheme:"C4")
    = None);
  (* nan never enters through add either *)
  Cache.add cache ~key:"k" ~ipc:Float.nan;
  Alcotest.(check int) "nan add is a no-op" 1 (Cache.size cache)

(* --- ledger gc and id assignment --------------------------------------- *)

let test_ledger_gc () =
  let dir = temp_dir () in
  let cells_a = [| mk_cell "LLHH" "C4" |] in
  let cells_b = [| mk_cell ~ipc:2.5 "LLHH" "C4" |] in
  ignore (Ledger.append ~dir (mk_run ~label:"old" ~cells:cells_a ()));
  ignore (Ledger.append ~dir (mk_run ~label:"new" ~cells:cells_a ()));
  ignore (Ledger.append ~dir (mk_run ~label:"drift" ~cells:cells_b ()));
  (* dry run touches nothing *)
  let dry = Ledger.gc ~dry_run:true ~dir () in
  Alcotest.(check int) "dry run finds the duplicate" 1
    (List.length dry.Ledger.dropped);
  Alcotest.(check int) "dry run leaves the file" 3
    (List.length (Ledger.load ~dir));
  let report = Ledger.gc ~dir () in
  Alcotest.(check (list string))
    "duplicate dropped (oldest)" [ "r1" ]
    (List.map (fun r -> r.Ledger.id) report.Ledger.dropped);
  Alcotest.(check (list string))
    "newest duplicate and the drift witness survive" [ "r2"; "r3" ]
    (List.map (fun r -> r.Ledger.id) (Ledger.load ~dir));
  (* idempotence *)
  let again = Ledger.gc ~dir () in
  Alcotest.(check int) "second gc drops nothing" 0
    (List.length again.Ledger.dropped);
  (* ids after gc never collide with survivors: max+1, not count+1 *)
  let fresh = Ledger.append ~dir (mk_run ~label:"post-gc" ~cells:cells_a ()) in
  Alcotest.(check string) "fresh id skips the gap" "r4" fresh.Ledger.id

(* --- prepared rows ----------------------------------------------------- *)

(* The service's execution path (prepare once, simulate per scheme) must
   be bit-identical to the sweep engine's own cells — this is what makes
   cache entries interchangeable with exp results. *)
let test_simulate_prepared_bit_identity () =
  let scale = E.Common.Quick and seed = 7L in
  let scheme_names = [ "C4"; "1S" ] and mix_names = [ "LLHH"; "MMMM" ] in
  let _, _, cells =
    E.Sweep.run_cells ~scale ~seed ~scheme_names ~mix_names ()
  in
  List.iter
    (fun mix ->
      let pr = E.Sweep.prepare_row ~scale ~seed mix in
      Alcotest.(check string) "prepared mix name" mix (E.Sweep.prepared_mix pr);
      List.iter
        (fun scheme ->
          let ipc =
            E.Sweep.simulate_prepared pr
              (E.Sweep.static_column (Vliw_merge.Catalog.find_exn scheme))
          in
          let reference =
            match
              Array.find_opt
                (fun (c : E.Sweep.cell) -> c.mix = mix && c.scheme = scheme)
                cells
            with
            | Some c -> c.ipc
            | None -> Alcotest.failf "no reference cell for %s/%s" mix scheme
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s bit-identical" mix scheme)
            true
            (Int64.bits_of_float ipc = Int64.bits_of_float reference))
        scheme_names)
    mix_names

(* --- end-to-end daemon ------------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec retry n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Unix.sleepf 0.05;
      retry (n - 1)
  in
  retry 100

let send_line fd doc =
  let line = Ndjson.line doc in
  let rec push off =
    if off < String.length line then
      push (off + Unix.write_substring fd line off (String.length line - off))
  in
  push 0

(* Read reply lines until [stop] returns [Some _] for one of them. *)
let read_until fd stop =
  let reader = Ndjson.reader () in
  let buf = Bytes.create 4096 in
  let rec loop acc =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Alcotest.fail "server closed the connection unexpectedly"
    | n ->
      let docs =
        List.map ok_doc (Ndjson.feed reader ~len:n (Bytes.unsafe_to_string buf))
      in
      let acc = acc @ docs in
      (match List.find_map stop docs with
      | Some v -> (v, acc)
      | None -> loop acc)
  in
  loop []

let member_str key doc =
  match J.member key doc with Some (J.Str s) -> Some s | _ -> None

let member_num key doc =
  match J.member key doc with Some (J.Num v) -> Some v | _ -> None

let done_reply doc =
  if member_str "reply" doc = Some "done" then Some doc else None

let submit_req ~tag ~mixes ~schemes =
  Request.to_json
    (Request.Submit
       {
         tag;
         scale = "quick";
         seed = 42L;
         priority = 0;
         mixes;
         schemes;
         trace = None;
       })

let test_daemon_end_to_end () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "svc.sock" in
  let runs_dir = Filename.concat dir "_runs" in
  let server =
    Domain.spawn (fun () ->
        Server.run
          {
            Server.default_config with
            socket_path = Some socket;
            runs_dir;
            jobs = 2;
          })
  in
  Fun.protect
    ~finally:(fun () -> Domain.join server)
    (fun () ->
      let mixes = [ "LLHH" ] and schemes = [ "C4"; "1S" ] in
      let fd = connect socket in
      (* ping first: the transport is alive *)
      send_line fd (Request.to_json Request.Ping);
      let pong, _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "pong" then Some d else None)
      in
      ignore pong;
      (* malformed and oversized lines get error replies, connection
         survives *)
      ignore (Unix.write_substring fd "{broken\n" 0 8);
      let err1, _ =
        read_until fd (fun d -> member_str "error" d)
      in
      Alcotest.(check bool) "malformed line rejected" true
        (String.length err1 > 0);
      send_line fd (J.Obj [ ("op", J.Str "submit"); ("scale", J.Str "saturn") ]);
      let err2, _ = read_until fd (fun d -> member_str "error" d) in
      Alcotest.(check bool) "unknown scale rejected" true
        (String.length err2 > 0);
      (* cold submit: everything simulates *)
      send_line fd (submit_req ~tag:"cold" ~mixes ~schemes);
      let done1, lines1 = read_until fd done_reply in
      Alcotest.(check (option (float 0.0))) "all cells simulated" (Some 2.0)
        (member_num "simulated" done1);
      Alcotest.(check (option (float 0.0))) "no cache hits yet" (Some 0.0)
        (member_num "cached" done1);
      let events =
        List.filter (fun d -> J.member "ev" d <> None) lines1
      in
      Alcotest.(check bool) "event stream present" true
        (List.length events >= 3 (* started + 2 cells + finished *));
      (* warm submit: zero simulations, bit-identical digest *)
      send_line fd (submit_req ~tag:"warm" ~mixes ~schemes);
      let done2, _ = read_until fd done_reply in
      Alcotest.(check (option (float 0.0))) "second submit simulates nothing"
        (Some 0.0)
        (member_num "simulated" done2);
      Alcotest.(check (option (float 0.0))) "second submit all cached" (Some 2.0)
        (member_num "cached" done2);
      Alcotest.(check (option string)) "digests bit-identical"
        (member_str "digest" done1)
        (member_str "digest" done2);
      (* stats reflect the session *)
      send_line fd (Request.to_json Request.Stats);
      let s, _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "stats" then Some d else None)
      in
      Alcotest.(check (option (float 0.0))) "stats cache size" (Some 2.0)
        (member_num "cache_cells" s);
      (* metrics op yields a lintable exposition *)
      send_line fd (Request.to_json Request.Metrics);
      let m, _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "metrics" then Some d else None)
      in
      (match member_str "exposition" m with
      | Some text ->
        Alcotest.(check (list string)) "exposition lints clean" []
          (Vliw_telemetry.Openmetrics.lint text)
      | None -> Alcotest.fail "metrics reply carries no exposition");
      (* graceful shutdown *)
      send_line fd (Request.to_json Request.Shutdown);
      let _, _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "shutting_down" then Some d
            else None)
      in
      Unix.close fd);
  (* both jobs are on the ledger and bit-identical — to each other and
     to a local run of the same configuration *)
  (match Ledger.load ~dir:runs_dir with
  | [ a; b ] ->
    Alcotest.(check string) "serve records" "serve" a.Ledger.cmd;
    Alcotest.(check bool) "served grids diff Identical" true
      (Ledger.diff a b = Ledger.Identical);
    Alcotest.(check int) "warm run took zero attempts" 0
      (Array.fold_left (fun acc c -> acc + c.Ledger.attempts) 0 b.Ledger.cells);
    let _, _, local =
      E.Sweep.run_cells ~scale:E.Common.Quick ~seed:42L
        ~scheme_names:[ "C4"; "1S" ] ~mix_names:[ "LLHH" ] ()
    in
    Array.iter
      (fun (c : Ledger.cell) ->
        let reference =
          match
            Array.find_opt
              (fun (l : E.Sweep.cell) ->
                l.mix = c.mix && l.scheme = c.scheme)
              local
          with
          | Some l -> l.ipc
          | None -> Alcotest.failf "no local cell for %s/%s" c.mix c.scheme
        in
        Alcotest.(check bool)
          (Printf.sprintf "served %s/%s == local run" c.mix c.scheme)
          true
          (Int64.bits_of_float c.ipc = Int64.bits_of_float reference))
      a.Ledger.cells;
    Alcotest.(check string) "fingerprint matches a local exp's" a.Ledger.fingerprint
      (Ledger.fingerprint_of ~scale:"quick" ~seed:42L
         ~scheme_names:[ "C4"; "1S" ] ~mix_names:[ "LLHH" ] ())
  | rs -> Alcotest.failf "expected 2 ledger records, found %d" (List.length rs));
  (* the socket file is gone after graceful shutdown *)
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

(* --- tracing ----------------------------------------------------------- *)

module Span = Vliw_telemetry.Span

let submit_json ?trace ?(mixes = [ "LLHH" ]) ?(schemes = [ "C4" ]) ~seed ~tag
    () =
  Request.to_json
    (Request.Submit
       { tag; scale = "quick"; seed; priority = 0; mixes; schemes; trace })

(* Spin a daemon, hand [f] a connected fd, shut down gracefully, join. *)
let with_daemon ?(jobs = 1) ?tracer ?max_line_bytes dir f =
  let socket = Filename.concat dir "svc.sock" in
  let runs_dir = Filename.concat dir "_runs" in
  let cfg =
    {
      Server.default_config with
      socket_path = Some socket;
      runs_dir;
      jobs;
      tracer;
      max_line_bytes =
        Option.value max_line_bytes
          ~default:Server.default_config.Server.max_line_bytes;
    }
  in
  let server = Domain.spawn (fun () -> Server.run cfg) in
  Fun.protect
    ~finally:(fun () -> Domain.join server)
    (fun () ->
      let fd = connect socket in
      let r = f fd in
      send_line fd (Request.to_json Request.Shutdown);
      let _ =
        read_until fd (fun d ->
            if member_str "reply" d = Some "shutting_down" then Some d
            else None)
      in
      Unix.close fd;
      r)

(* A traced submit gets its span tree back on the done reply, the
   lifecycle spans decompose the reported latency, and the forest is
   well-nested once the client adds its own root — the serve half of
   the tracing acceptance contract. *)
let test_daemon_traced_submit () =
  let dir = temp_dir () in
  let client = Span.collector ~seed:0xc0ffeeL () in
  let trace = Span.fresh_id client in
  let croot = Span.fresh_id client in
  with_daemon ~jobs:1 dir (fun fd ->
      let t_send = Unix.gettimeofday () in
      send_line fd
        (submit_json
           ~trace:{ Request.trace_id = trace; parent_span = Some croot }
           ~seed:42L ~tag:"traced" ());
      let done1, _ = read_until fd done_reply in
      let t_done = Unix.gettimeofday () in
      Alcotest.(check (option string))
        "trace id echoed"
        (Some (Span.id_to_hex trace))
        (member_str "trace" done1);
      let spans =
        match J.member "spans" done1 with
        | Some j -> (
          match Span.list_of_json j with
          | Ok ss -> ss
          | Error e -> Alcotest.fail ("reply spans undecodable: " ^ e))
        | None -> Alcotest.fail "done reply carries no spans"
      in
      Alcotest.(check bool) "all spans in the request's trace" true
        (List.for_all (fun s -> s.Span.trace = trace) spans);
      let root =
        match List.filter (fun s -> s.Span.kind = Span.Submit) spans with
        | [ r ] -> r
        | _ -> Alcotest.fail "expected exactly one submit root"
      in
      Alcotest.(check bool) "root parented to the client span" true
        (root.Span.parent = Some croot);
      Alcotest.(check bool) "children hang off the root" true
        (List.for_all
           (fun s -> s.Span.id = root.Span.id || s.Span.parent = Some root.Span.id)
           spans);
      let durs k =
        List.filter_map
          (fun s -> if s.Span.kind = k then Some s.Span.dur_s else None)
          spans
      in
      (match
         (durs Span.Queue_wait, durs Span.Schedule, durs Span.Simulate_cell,
          durs Span.Ledger_append)
       with
      | [ qw ], [ sched ], [ sim ], [ led ] ->
        let wall =
          match member_num "wall_s" done1 with
          | Some w -> w
          | None -> Alcotest.fail "done reply carries no wall_s"
        in
        let parts = qw +. sched +. sim +. led in
        Alcotest.(check bool)
          (Printf.sprintf
             "lifecycle spans (%.4fs) decompose the reported latency (%.4fs)"
             parts wall)
          true
          (parts <= wall +. 0.01 && wall -. parts <= 0.25)
      | _ -> Alcotest.fail "expected one span per lifecycle kind");
      (* the client's own root over the reply closes the forest *)
      let cspan =
        {
          Span.trace;
          id = croot;
          parent = None;
          kind = Span.Submit;
          name = "client";
          lane = "client";
          start_s = t_send;
          dur_s = t_done -. t_send;
        }
      in
      Alcotest.(check (list string)) "merged forest well-nested" []
        (Span.validate ~slack_s:0.05 (cspan :: spans));
      (* an untraced submit on the same connection gets no spans back *)
      send_line fd (submit_json ~seed:42L ~tag:"plain" ());
      let done2, _ = read_until fd done_reply in
      Alcotest.(check bool) "untraced reply has no spans" true
        (J.member "spans" done2 = None);
      Alcotest.(check bool) "untraced reply has no trace id" true
        (J.member "trace" done2 = None))

(* Tracing is observation-only: a daemon with a collector (and a traced
   request) produces the same grid bits as an untraced daemon serving an
   untraced request, at jobs 1 and 4. *)
let serve_once ~jobs ~seed ~traced =
  let dir = temp_dir () in
  let tracer = if traced then Some (Span.collector ~seed:99L ()) else None in
  let digest =
    with_daemon ~jobs ?tracer dir (fun fd ->
        let trace =
          if traced then
            Some { Request.trace_id = 0xabcL; parent_span = None }
          else None
        in
        send_line fd
          (submit_json ?trace ~schemes:[ "C4"; "1S" ] ~seed ~tag:"obs" ());
        let d, _ = read_until fd done_reply in
        match member_str "digest" d with
        | Some dg -> dg
        | None -> Alcotest.fail "done reply carries no digest")
  in
  match Ledger.load ~dir:(Filename.concat dir "_runs") with
  | [ r ] -> (digest, r)
  | rs -> Alcotest.failf "expected 1 ledger record, found %d" (List.length rs)

let test_tracing_observation_only =
  QCheck.Test.make ~count:2
    ~name:"serve: tracing is observation-only (jobs 1 and 4)"
    QCheck.(int_bound 1000)
    (fun seed_i ->
      let seed = Int64.of_int seed_i in
      List.for_all
        (fun jobs ->
          let d_plain, r_plain = serve_once ~jobs ~seed ~traced:false in
          let d_traced, r_traced = serve_once ~jobs ~seed ~traced:true in
          d_plain = d_traced && Ledger.diff r_plain r_traced = Ledger.Identical)
        [ 1; 4 ])

(* An oversized traced request is poisoned and discarded: error reply,
   connection alive, and the daemon's span buffer records only the jobs
   that actually ran. *)
let test_traced_oversized_request () =
  let dir = temp_dir () in
  let tracer = Span.collector ~seed:5L () in
  let trace = Span.fresh_id tracer in
  let croot = Span.fresh_id tracer in
  with_daemon ~jobs:1 ~tracer ~max_line_bytes:2048 dir (fun fd ->
      (* a traced submit inflated past the line budget *)
      let fat =
        submit_json
          ~trace:{ Request.trace_id = trace; parent_span = Some croot }
          ~mixes:(List.init 400 (fun i -> Printf.sprintf "M%04d" i))
          ~seed:42L ~tag:"fat" ()
      in
      Alcotest.(check bool) "request really over budget" true
        (String.length (J.to_string fat) > 2048);
      send_line fd fat;
      let err, _ = read_until fd (fun d -> member_str "error" d) in
      Alcotest.(check bool) "oversized line rejected" true
        (String.length err > 0);
      (* same connection, same trace ids: a well-sized retry succeeds *)
      send_line fd
        (submit_json
           ~trace:{ Request.trace_id = trace; parent_span = Some croot }
           ~seed:42L ~tag:"retry" ());
      let d, _ = read_until fd done_reply in
      Alcotest.(check (option string))
        "retry traced under the same trace"
        (Some (Span.id_to_hex trace))
        (member_str "trace" d));
  (* the daemon's buffer holds exactly the retry job's spans — nothing
     leaked in from the poisoned line *)
  let spans = Span.spans tracer in
  Alcotest.(check bool) "span buffer non-empty" true (List.length spans > 0);
  Alcotest.(check bool) "only the surviving trace recorded" true
    (List.for_all (fun s -> s.Span.trace = trace) spans);
  match List.filter (fun s -> s.Span.kind = Span.Submit) spans with
  | [ root ] ->
    Alcotest.(check bool) "single root, client-parented" true
      (root.Span.parent = Some croot)
  | rs -> Alcotest.failf "expected one submit root, found %d" (List.length rs)

(* --- wire pin ------------------------------------------------------------ *)

(* Raw reply lines, as the daemon wrote them, up to and including the
   [done] reply. *)
let read_raw_until_done fd =
  let buf = Bytes.create 4096 in
  let rec loop pending acc =
    match String.index_opt pending '\n' with
    | Some i ->
      let line = String.sub pending 0 i in
      let rest = String.sub pending (i + 1) (String.length pending - i - 1) in
      if String.starts_with ~prefix:{|{"reply":"done"|} line then
        List.rev (line :: acc)
      else loop rest (line :: acc)
    | None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.fail "server closed the connection unexpectedly"
      | n -> loop (pending ^ Bytes.sub_string buf 0 n) acc)
  in
  loop "" []

(* Replace the value of every ["key":] in [line] with [#]: a number,
   [null] or an escape-free string. Everything else keeps its bytes. *)
let mask_fields keys line =
  let out = Buffer.create (String.length line) in
  let n = String.length line in
  let rec value_end i =
    if i >= n then i
    else match line.[i] with ',' | '}' | ']' -> i | _ -> value_end (i + 1)
  in
  let rec go i =
    if i >= n then ()
    else
      match
        List.find_opt
          (fun k ->
            let pat = "\"" ^ k ^ "\":" in
            i + String.length pat <= n && String.sub line i (String.length pat) = pat)
          keys
      with
      | Some k ->
        let v = i + String.length k + 3 in
        Buffer.add_string out (String.sub line i (v - i));
        Buffer.add_char out '#';
        let stop =
          if v < n && line.[v] = '"' then String.index_from line (v + 1) '"' + 1
          else value_end v
        in
        go stop
      | None ->
        Buffer.add_char out line.[i];
        go (i + 1)
  in
  go 0;
  Buffer.contents out

(* The bytes a warm resubmit puts on the wire and on the ledger, pinned
   against goldens captured before the JSON writer was rewritten: every
   reply and event line (kinds, field order, number images) with the
   clock readings masked, and the appended ledger record with its
   timestamps and revision masked. The grid covers integral and
   non-integral IPC images, an unquoted tag and every reply kind of a
   submit. *)
let test_warm_wire_pinned () =
  let dir = temp_dir () in
  let mixes = [ "LLHH"; "MMMM" ] and schemes = [ "C4"; "1S"; "2SC3" ] in
  let stream =
    with_daemon ~jobs:1 dir (fun fd ->
        send_line fd (submit_json ~mixes ~schemes ~seed:42L ~tag:"cold" ());
        ignore (read_raw_until_done fd);
        send_line fd (submit_json ~mixes ~schemes ~seed:42L ~tag:"warm \"w\"" ());
        read_raw_until_done fd)
  in
  let masked =
    List.map (mask_fields [ "ts"; "started_s"; "elapsed_s"; "wall_s" ]) stream
  in
  let ledger_line =
    let path = Filename.concat dir "_runs/ledger.jsonl" in
    let text = In_channel.with_open_bin path In_channel.input_all in
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text)) with
    | last :: _ -> mask_fields [ "time_s"; "wall_s"; "git" ] last
    | [] -> Alcotest.fail "no ledger record appended"
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let golden_wire = "dcb3a1f0033f5f8b0e67d9b5b388c7ad"
  and golden_record = "466b9e9faed383ba1789423377b3ff2d" in
  let wire = md5 (String.concat "\n" masked) and record = md5 ledger_line in
  if wire <> golden_wire || record <> golden_record then begin
    List.iter (Printf.eprintf "wire: %s\n") masked;
    Printf.eprintf "ledger: %s\n%!" ledger_line
  end;
  Alcotest.(check int) "reply lines" 10 (List.length masked);
  Alcotest.(check string) "warm reply stream digest" golden_wire wire;
  Alcotest.(check string) "warm ledger record digest" golden_record record

let suite =
  ( "service",
    [
      Alcotest.test_case "ndjson: chunk reassembly" `Quick test_ndjson_reassembly;
      Alcotest.test_case "ndjson: malformed lines" `Quick test_ndjson_malformed;
      Alcotest.test_case "ndjson: oversized lines" `Quick test_ndjson_oversized;
      Alcotest.test_case "ndjson: truncated stream" `Quick test_ndjson_truncated;
      Alcotest.test_case "request: defaults and rejects" `Quick test_request_defaults;
      QCheck_alcotest.to_alcotest test_request_roundtrip;
      QCheck_alcotest.to_alcotest test_ndjson_chunked_stream;
    ]
    @ List.map QCheck_alcotest.to_alcotest request_robustness
    @ [
      Alcotest.test_case "scheduler: priority + FIFO" `Quick test_scheduler_priority_fifo;
      Alcotest.test_case "scheduler: backfilling" `Quick test_scheduler_backfill;
      Alcotest.test_case "scheduler: edge cases" `Quick test_scheduler_edges;
      Alcotest.test_case "fnv1a64: bits pinned" `Quick test_fnv_bits_pinned;
      Alcotest.test_case "cache: key dimensions" `Quick test_cache_keys;
      Alcotest.test_case "cache: ingestion policy" `Quick test_cache_ingestion_policy;
      Alcotest.test_case "cache: ledger preload" `Quick test_cache_preload;
      Alcotest.test_case "ledger: gc + id assignment" `Quick test_ledger_gc;
      Alcotest.test_case "prepared rows bit-identical to sweep" `Quick
        test_simulate_prepared_bit_identity;
      Alcotest.test_case "daemon: cold/warm end-to-end" `Quick
        test_daemon_end_to_end;
      Alcotest.test_case "daemon: traced submit round-trip" `Quick
        test_daemon_traced_submit;
      QCheck_alcotest.to_alcotest test_tracing_observation_only;
      Alcotest.test_case "daemon: oversized traced request poisoned" `Quick
        test_traced_oversized_request;
      Alcotest.test_case "daemon: warm wire bytes pinned" `Quick
        test_warm_wire_pinned;
    ] )
