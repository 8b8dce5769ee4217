(* Table-driven exit-code contract of the vliwsim binary.

   The convention (documented in bin/vliwsim.ml): 0 success, 1 runtime
   error, 2 usage error — uniformly across subcommands, diagnostics on
   stderr. Each case invokes the real executable (declared as a dune
   test dependency) as a subprocess. *)

let vliwsim = "../bin/vliwsim.exe"

let run_cli args =
  (* stdout/stderr silenced: only the exit code is under test here *)
  match Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" vliwsim args) with
  | n -> n

let cases =
  [
    (* usage errors: exit 2 *)
    ("exp no-such-experiment -q", 2);
    ("exp fig4 --scale bogus -q", 2);
    ("exp fig10 --resume -q", 2);
    (* --resume without --checkpoint *)
    ("exp fig10 --max-retries=-1 -q", 2);
    ("no-such-subcommand", 2);
    ("exp", 2);
    (* missing positional argument *)
    ("run --scheme NOPE --scale quick", 2);
    ("run --mix NOPE --scale quick", 2);
    ("run --benchmarks nope --scale quick", 2);
    ("trace --mix NOPE", 2);
    ("compile --benchmark nope", 2);
    ("compile --mode nope", 2);
    ("profile no-such-experiment -q", 2);
    ("serve", 2);
    (* no --socket/--tcp listener *)
    ("submit", 2);
    (* no --socket/--tcp endpoint *)
    ("submit --socket /tmp/x.sock --op bogus", 2);
    ("submit --socket /tmp/x.sock --scale bogus", 2);
    ("dist --workers 0", 2);
    (* no transport at all *)
    ("dist --workers=-1", 2);
    ("dist --resume", 2);
    (* --resume without --checkpoint *)
    ("exp fig10 --workers=-1 -q", 2);
    ("exp fig10 --replicates=-1 -q", 2);
    ("worker --connect /tmp/x.sock --connect-tcp 9", 2);
    (* conflicting transports *)
    ("runs merge --runs-dir /tmp/x", 2);
    (* no source ledgers *)
    ("runs merge --runs-dir /tmp/x /nonexistent-vliw-ledger", 2);
    (* source without a ledger file *)
    (* runtime errors: exit 1 (journal path in a missing directory) *)
    ("exp fig10 --scale quick -q --checkpoint /nonexistent-dir/x/ck", 1);
    (* a library-level Invalid_argument surfaces as a diagnostic + exit
       1 (runtime error), never exit 2 (reserved for usage problems) *)
    ("run --scale quick --trace-len 0", 1);
    ("submit --socket /nonexistent-dir/absent.sock", 1);
    (* no daemon listening *)
    (* successes: exit 0 *)
    ("schemes", 0);
    ("benchmarks", 0);
    ("exp list", 0);
    ("runs gc --dry-run --runs-dir /nonexistent-vliw-ledger", 0);
    (* gc of an absent ledger is an empty no-op *)
    ("exp fig5 -q", 0);
    ("--version", 0);
    ("--help", 0);
    ("exp --help", 0);
  ]

let test_exit_codes () =
  List.iter
    (fun (args, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "vliwsim %s -> exit %d" args expected)
        expected (run_cli args))
    cases

(* --- run ledger / report flow ----------------------------------------- *)

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

(* End-to-end contract of the observability surface: every run records a
   ledger entry, runs list/show/diff/export-metrics/lint and report obey
   the exit-code convention, diagnostics go to stderr and data to
   stdout. *)
let test_runs_and_report_flow () =
  let dir = Filename.temp_file "vliwcli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let runs_dir = Filename.concat dir "runs" in
  let out = Filename.concat dir "out.txt"
  and err = Filename.concat dir "err.txt" in
  let cli args =
    Sys.command (Printf.sprintf "%s %s >%s 2>%s" vliwsim args out err)
  in
  let quick = Printf.sprintf "run --scheme 2SC3 --mix LLHH --scale quick --runs-dir %s" runs_dir in
  (* two identical runs and one with a perturbed seed *)
  Alcotest.(check int) "run records a ledger entry" 0 (cli quick);
  Alcotest.(check bool) "recording note on stderr" true
    (contains ~needle:"recorded run r1" (read_file err));
  Alcotest.(check bool) "simulation data on stdout" true
    (contains ~needle:"IPC" (read_file out));
  Alcotest.(check int) "second identical run" 0 (cli quick);
  Alcotest.(check int) "perturbed-seed run" 0 (cli (quick ^ " --seed 7"));
  (* --no-ledger leaves the store untouched *)
  Alcotest.(check int) "opt-out run" 0 (cli (quick ^ " --no-ledger"));
  (* list: table on stdout *)
  Alcotest.(check int) "runs list" 0
    (cli (Printf.sprintf "runs list --runs-dir %s" runs_dir));
  let listing = read_file out in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " listed") true
        (contains ~needle listing))
    [ "r1"; "r2"; "r3" ];
  Alcotest.(check bool) "opt-out run not recorded" false
    (contains ~needle:"r4" listing);
  (* show *)
  Alcotest.(check int) "runs show" 0
    (cli (Printf.sprintf "runs show --runs-dir %s r1" runs_dir));
  Alcotest.(check bool) "show prints the fingerprint" true
    (contains ~needle:"fingerprint" (read_file out));
  (* diff: identical runs exit 0, drifted runs exit 1 and name the cell *)
  Alcotest.(check int) "diff identical" 0
    (cli (Printf.sprintf "runs diff --runs-dir %s r1 r2" runs_dir));
  Alcotest.(check bool) "diff reports bit-identical" true
    (contains ~needle:"bit-identical" (read_file out));
  Alcotest.(check int) "diff drifted" 1
    (cli (Printf.sprintf "runs diff --runs-dir %s r1 r3" runs_dir));
  Alcotest.(check bool) "diff names the first drifting cell" true
    (contains ~needle:"first drift at (LLHH, 2SC3)" (read_file out));
  (* export-metrics round-trips through the in-repo linter *)
  let prom = Filename.concat dir "metrics.prom" in
  Alcotest.(check int) "export-metrics" 0
    (cli (Printf.sprintf "runs export-metrics --runs-dir %s latest -o %s" runs_dir prom));
  Alcotest.(check int) "lint accepts our exposition" 0
    (cli (Printf.sprintf "runs lint %s" prom));
  let bad = Filename.concat dir "bad.prom" in
  Out_channel.with_open_bin bad (fun oc ->
      output_string oc "bogus{ 1\nno_type_line 2\n");
  Alcotest.(check int) "lint rejects a broken exposition" 1
    (cli (Printf.sprintf "runs lint %s" bad));
  Alcotest.(check bool) "violations on stderr" true
    (contains ~needle:"violation" (read_file err));
  (* report: one self-contained file *)
  let html = Filename.concat dir "report.html" in
  Alcotest.(check int) "report" 0
    (cli (Printf.sprintf "report --runs-dir %s --run r1 -o %s" runs_dir html));
  let doc = read_file html in
  Alcotest.(check bool) "report has inline SVG" true (contains ~needle:"<svg" doc);
  Alcotest.(check bool) "report has no scripts" false
    (contains ~needle:"<script" doc);
  Alcotest.(check bool) "report has no external URLs" false
    (contains ~needle:"http" doc);
  (* usage errors: unknown id, empty ledger *)
  Alcotest.(check int) "unknown run id" 2
    (cli (Printf.sprintf "runs show --runs-dir %s r99" runs_dir));
  Alcotest.(check int) "empty ledger is a usage error" 2
    (cli (Printf.sprintf "runs show --runs-dir %s latest" (Filename.concat dir "void")));
  Alcotest.(check int) "report on empty ledger" 2
    (cli (Printf.sprintf "report --runs-dir %s" (Filename.concat dir "void")));
  Alcotest.(check int) "lint on a missing file" 2
    (cli (Printf.sprintf "runs lint %s" (Filename.concat dir "nope.prom")));
  (* listing an empty ledger is informational, not an error *)
  Alcotest.(check int) "runs list on empty ledger" 0
    (cli (Printf.sprintf "runs list --runs-dir %s" (Filename.concat dir "void")));
  Alcotest.(check string) "empty listing keeps stdout clean" ""
    (read_file out)

(* --- ledger records written before the decision cache was retired ----- *)

(* A record as the simulator wrote it while the merge engine still kept
   per-scheme decision caches: its counters carry the aggregate
   [merge.memo.*] triple and one [merge.memo.scheme.<name>.*] triple per
   scheme run. Nothing books those names any more, but old ledgers keep
   them, and every reader must still accept such a record. *)
let memo_era_record =
  {|{"schema":1,"id":"r1","time_s":1792226800.7721951,"cmd":"run","label":"2SC3 on LLHH","git":"unknown","fp":"7d6379a1e4b71a79","scale":"quick","seed":"0xc5eed","jobs":1,"schemes":["2SC3"],"mixes":["LLHH"],"wall_s":0.049757957458496094,"digest":"e0fcb863f7d40b64","cells":[{"mix":"LLHH","scheme":"2SC3","ipc":4.4846857142857139,"bits":"0x4011f05173aec83c","t":0.049757957458496094,"at":0,"w":0,"n":1}],"counters":{"core.cycles":40000,"core.switch_bubble_cycles":8,"events.issue":39000,"merge.memo.flushes":1,"merge.memo.hits":12000,"merge.memo.misses":25000,"merge.memo.scheme.2SC3.flushes":1,"merge.memo.scheme.2SC3.hits":9000,"merge.memo.scheme.2SC3.misses":20000,"merge.memo.scheme.3SSS.flushes":0,"merge.memo.scheme.3SSS.hits":3000,"merge.memo.scheme.3SSS.misses":5000,"sim.scheme_switches":1,"sim.switch_stall_cycles":8,"slots.filled":180000,"slots.offered":640000,"waste.horizontal.ilp":299872,"waste.horizontal.merge_capacity":30000,"waste.horizontal.merge_conflict":70000,"waste.horizontal.merge_priority":0,"waste.vertical.bmt_switch":128,"waste.vertical.branch_stall":2000,"waste.vertical.fetch_stall":40000,"waste.vertical.idle":0,"waste.vertical.mem_stall":18000},"gauges":{"ipc":4.4846857142857139},"retries":0,"degraded":0,"timeouts":0,"resumed":0}
|}

let test_memo_era_record () =
  let dir = Filename.temp_file "vliwcli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let runs_dir = Filename.concat dir "runs" in
  Sys.mkdir runs_dir 0o755;
  Out_channel.with_open_bin
    (Vliw_telemetry.Ledger.ledger_path ~dir:runs_dir)
    (fun oc -> output_string oc memo_era_record);
  let run =
    match Vliw_telemetry.Ledger.load ~dir:runs_dir with
    | [ run ] -> run
    | runs -> Alcotest.failf "expected one record, loaded %d" (List.length runs)
  in
  Alcotest.(check (option int)) "memo counters survive the load" (Some 12000)
    (List.assoc_opt "merge.memo.hits" run.counters);
  let out = Filename.concat dir "out.txt"
  and err = Filename.concat dir "err.txt" in
  let cli args =
    Sys.command
      (Printf.sprintf "%s %s --runs-dir %s >%s 2>%s" vliwsim args runs_dir out
         err)
  in
  Alcotest.(check int) "runs show" 0 (cli "runs show r1");
  let prom = Filename.concat dir "metrics.prom" in
  Alcotest.(check int) "runs export-metrics" 0
    (cli (Printf.sprintf "runs export-metrics r1 -o %s" prom));
  Alcotest.(check int) "lint accepts the exposition" 0
    (Sys.command (Printf.sprintf "%s runs lint %s >/dev/null 2>&1" vliwsim prom));
  Alcotest.(check int) "report" 0
    (cli (Printf.sprintf "report --run r1 -o %s" (Filename.concat dir "r.html")));
  (* The profile-style rendering reads the record's counters. *)
  let text =
    Vliw_telemetry.Report.render
      { Vliw_telemetry.Counters.counters = run.counters; histograms = [] }
  in
  Alcotest.(check bool) "attribution rendered" true
    (contains ~needle:"Stall attribution over 40000 cycles" text);
  Alcotest.(check bool) "every wasted slot attributed" false
    (contains ~needle:"unattributed" text);
  Alcotest.(check bool) "no decision-cache lines" false
    (contains ~needle:"ecision cache" text)

(* --log-json flag plumbing: accepted under -q, the stream file is
   created even when the experiment emits no sweep events. The stream's
   content is covered at the library level (test_observability) and the
   full `exp fig10 --log-json` path by the CI smoke job — a quick fig10
   sweep is too slow for the unit suite. *)
let test_log_json_stream () =
  let dir = Filename.temp_file "vliwcli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let events = Filename.concat dir "events.ndjson" in
  Alcotest.(check int) "exp with --log-json succeeds" 0
    (Sys.command
       (Printf.sprintf "%s exp fig5 -q --no-ledger --log-json %s >/dev/null 2>&1"
          vliwsim events));
  Alcotest.(check bool) "stream file created" true (Sys.file_exists events)

let suite =
  ( "cli",
    [
      Alcotest.test_case "exit code contract" `Quick test_exit_codes;
      Alcotest.test_case "runs and report flow" `Quick test_runs_and_report_flow;
      Alcotest.test_case "ledger record with memo counters" `Quick
        test_memo_era_record;
      Alcotest.test_case "--log-json event stream" `Quick test_log_json_stream;
    ] )
