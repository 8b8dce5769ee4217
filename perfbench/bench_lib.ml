(* Pure helpers of the benchmark: input generation from the seed, the
   tail-percentile rule, the claims-gap figure, metric-name validation,
   span self time and the result line. Kept apart from the main program
   so they can be unit-tested without running a workload. *)

module J = Vliw_util.Json
module Rng = Vliw_util.Rng
module Ledger = Vliw_telemetry.Ledger
module Span = Vliw_telemetry.Span
module E = Vliw_experiments

(* --- metric names ---------------------------------------------------- *)

let is_alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

(* [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long. *)
let name_ok s =
  let n = String.length s in
  n > 0 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* --- order statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail of a latency sample is the highest percentile that still has
   at least ten samples beyond it: the value with exactly ten larger
   ranks. Returns the value and its percentile, or [None] below eleven
   samples, where no such percentile exists. *)
let tail xs =
  let n = Array.length xs in
  if n < 11 then None
  else
    let a = sorted xs in
    Some (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* --- fidelity ---------------------------------------------------------- *)

(* The paper's headline numbers, in the field order of [Claims.t]. *)
let paper_claims = [ 61.0; 27.0; 14.0; 45.0; -11.0 ]

let claim_values (c : E.Claims.t) =
  [
    c.smt4_over_smt2_pct;
    c.smt_over_csmt_pct;
    c.scheme_2sc3_over_csmt4_pct;
    c.scheme_2sc3_over_smt2_pct;
    c.scheme_2sc3_below_smt4_pct;
  ]

(* Mean absolute distance, in percentage points, between the simulated
   claims and the paper's. *)
let claims_gap_pp c =
  let gaps =
    List.map2 (fun v p -> Float.abs (v -. p)) (claim_values c) paper_claims
  in
  List.fold_left ( +. ) 0.0 gaps /. float_of_int (List.length gaps)

(* --- generated inputs ----------------------------------------------- *)

(* Ledger records the serve fixture holds: the daemon preloads them into
   its cache and re-reads them on every ledger append, so this is the
   input property warm submit latency depends on. Fixed across seeds so
   that seeds vary contents, not size. *)
let fixture_records = 200

(* Warm resubmits per serve pass: enough for a tail past the median. *)
let warm_submits = 25

(* Replicate seeds of the dist workload's grid. *)
let dist_replicates = 2

type inputs = {
  seed : int;
  sweep_seed : int64;
      (** Master seed of every fig10 grid in the run; seed 0 is the
          repository's default seed, whose quick grid digest is known. *)
  dist_seeds : int64 list;  (** Starts with [sweep_seed]. *)
  probe_seed : int64;  (** Programs and streams of the layer probes. *)
  fixture : string Lazy.t;
      (** JSONL ledger of prior serve records, none at a run seed. Lazy
          and kept as text, so that the in-process workloads do not
          carry it in their heap. *)
}

let default_digest = "1be9dd88d31f8c0b"

let fixture_run ~rng ~index ~seed =
  let scheme_names = E.Fig10.scheme_names in
  let mix_names = Vliw_workloads.Mixes.names in
  let cells =
    Array.of_list
      (List.concat_map
         (fun mix ->
           List.map
             (fun scheme ->
               {
                 Ledger.mix;
                 scheme;
                 ipc = 1.0 +. Rng.float rng 5.0;
                 elapsed_s = Rng.float rng 0.05;
                 started_s = 0.0;
                 worker = Rng.int rng 2;
                 attempts = 1;
                 degraded = false;
               })
             scheme_names)
         mix_names)
  in
  let n = Array.length cells in
  let mean =
    Array.fold_left (fun acc (c : Ledger.cell) -> acc +. c.ipc) 0.0 cells
    /. float_of_int n
  in
  {
    Ledger.id = Printf.sprintf "r%d" index;
    time_s = 1.7e9 +. (60.0 *. float_of_int index);
    cmd = "serve";
    label = Printf.sprintf "fixture-%d" index;
    git_rev = "fixture";
    fingerprint =
      Ledger.fingerprint_of ~scale:"quick" ~seed ~scheme_names ~mix_names ();
    scale = "quick";
    seed;
    jobs = 2;
    scheme_names;
    mix_names;
    policy = "static";
    wall_s = 1.0 +. Rng.float rng 2.0;
    cells;
    counters =
      [
        ("service.cells.cached", 0);
        ("service.cells.degraded", 0);
        ("service.cells.simulated", n);
      ];
    gauges = [ ("ipc.mean", mean) ];
    retries = 0;
    degraded = 0;
    timeouts = 0;
    resumed = 0;
  }

let make_inputs seed =
  let sweep_seed = Int64.add E.Common.default_seed (Int64.of_int seed) in
  let dist_seeds =
    sweep_seed
    :: E.Replicates.derive_seeds ~seed:sweep_seed (dist_replicates - 1)
  in
  let rng = Rng.create (Int64.logxor 0x0BE7C4L (Int64.of_int seed)) in
  let probe_seed = Rng.next_int64 rng in
  let fixture_rng = Rng.split rng in
  let fixture =
    lazy
      (let rec fresh_seed () =
         let s = Rng.next_int64 fixture_rng in
         if List.mem s dist_seeds then fresh_seed () else s
       in
       String.concat ""
         (List.init fixture_records (fun i ->
              let r = fixture_run ~rng:fixture_rng ~index:(i + 1) ~seed:(fresh_seed ()) in
              J.to_string (Ledger.to_json r) ^ "\n")))
  in
  { seed; sweep_seed; dist_seeds; probe_seed; fixture }

let fixture_runs inp =
  String.split_on_char '\n' (Lazy.force inp.fixture)
  |> List.filter_map (fun l -> Result.to_option (J.parse l))
  |> List.filter_map Ledger.of_json

(* --- grids ------------------------------------------------------------- *)

let ledger_cells (cells : E.Sweep.cell array) =
  Array.map
    (fun (c : E.Sweep.cell) ->
      {
        Ledger.mix = c.mix;
        scheme = c.scheme;
        ipc = c.ipc;
        elapsed_s = c.elapsed_s;
        started_s = c.started_s;
        worker = c.worker;
        attempts = c.attempts;
        degraded = c.error <> None;
      })
    cells

let digest cells = Ledger.grid_digest (ledger_cells cells)

(* --- spans ------------------------------------------------------------- *)

(* Self time of [s]: its duration minus the part of its interval that
   its children cover (overlapping children counted once). *)
let self_time spans =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.t) ->
      match s.parent with
      | Some p -> Hashtbl.add kids (s.trace, p) s
      | None -> ())
    spans;
  fun (s : Span.t) ->
    let lo = s.start_s and hi = s.start_s +. s.dur_s in
    let ivs =
      Hashtbl.find_all kids (s.trace, s.id)
      |> List.filter_map (fun (c : Span.t) ->
             let a = Float.max lo c.start_s
             and b = Float.min hi (c.start_s +. c.dur_s) in
             if b > a then Some (a, b) else None)
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = Float.max a reach in
          if b > a then (acc +. (b -. a), b) else (acc, reach))
        (0.0, lo) ivs
    in
    s.dur_s -. covered

(* --- result line --------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let result_json ~correct ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]))
             metrics) );
    ]
