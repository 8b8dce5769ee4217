(* Unit tests of the benchmark's own helpers. *)

module B = Bench_lib
module J = Vliw_util.Json
module Span = Vliw_telemetry.Span
module Ledger = Vliw_telemetry.Ledger

let floats = Alcotest.(float 1e-9)

let test_tail () =
  Alcotest.(check (option (pair floats floats)))
    "ten samples have no tail" None
    (B.tail (Array.init 10 float_of_int));
  Alcotest.(check (option (pair floats floats)))
    "eleven samples: the minimum has ten beyond it"
    (Some (0.0, 100.0 /. 11.0))
    (B.tail (Array.init 11 float_of_int));
  (* 1..100 shuffled: 90 has exactly ten larger samples. *)
  let xs = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  Alcotest.(check (option (pair floats floats)))
    "hundred samples: p90" (Some (90.0, 90.0)) (B.tail xs);
  Alcotest.(check floats) "median, even count" 50.5 (B.median xs)

let claims_of = function
  | [ a; b; c; d; e ] ->
    {
      Vliw_experiments.Claims.smt4_over_smt2_pct = a;
      smt_over_csmt_pct = b;
      scheme_2sc3_over_csmt4_pct = c;
      scheme_2sc3_over_smt2_pct = d;
      scheme_2sc3_below_smt4_pct = e;
    }
  | _ -> invalid_arg "claims_of"

let test_claims_gap () =
  Alcotest.(check floats) "paper values" 0.0 (B.claims_gap_pp (claims_of B.paper_claims));
  Alcotest.(check floats)
    "mean absolute distance" 9.0
    (B.claims_gap_pp (claims_of [ 34.0; 27.0; 14.0; 60.0; -14.0 ]))

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (B.name_ok n))
    [ "setup_s"; "sim.cell_ms.p50"; "merge.batch_eval_ns.2SC3"; "exp-all"; "1S" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (B.name_ok n))
    [ ""; "a b"; "_x"; ".x"; "a/b"; "caf\xc3\xa9"; String.make 65 'a' ]

(* Every name BENCHMARK.json declares passes the check, once. *)
let test_declared_names () =
  let doc =
    match J.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let names key =
    match Option.bind (J.member key doc) J.to_list with
    | Some l -> List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_string_opt) l
    | None -> Alcotest.fail key
  in
  let all = names "workloads" @ names "end_to_end" @ names "per_layer" in
  List.iter (fun n -> Alcotest.(check bool) n true (B.name_ok n)) all;
  Alcotest.(check int) "unique" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_inputs () =
  let a = B.make_inputs 5 and b = B.make_inputs 5 and c = B.make_inputs 6 in
  let text i = Lazy.force i.B.fixture in
  Alcotest.(check string) "same seed, same fixture" (text a) (text b);
  Alcotest.(check bool) "same seed, same grid seeds" true
    (a.sweep_seed = b.sweep_seed && a.dist_seeds = b.dist_seeds
    && a.probe_seed = b.probe_seed);
  Alcotest.(check bool) "another seed, another fixture" true
    (text a <> text c && a.sweep_seed <> c.sweep_seed);
  Alcotest.(check bool) "seed 0 is the default sweep seed" true
    ((B.make_inputs 0).sweep_seed = Vliw_experiments.Common.default_seed);
  Alcotest.(check int) "replicates" B.dist_replicates (List.length a.dist_seeds);
  Alcotest.(check bool) "dist grids start at the sweep seed" true
    (List.hd a.dist_seeds = a.sweep_seed);
  let runs = B.fixture_runs a in
  Alcotest.(check int) "every fixture line parses" B.fixture_records (List.length runs);
  List.iter
    (fun (r : Ledger.run) ->
      Alcotest.(check bool) "fixture never holds a run seed" false
        (List.mem r.seed a.dist_seeds);
      Alcotest.(check bool) "fixture records feed the serve cache" true
        (Vliw_service.Cache.cacheable_run r))
    runs

let test_self_time () =
  let sp ?parent id start_s dur_s =
    {
      Span.trace = 1L;
      id;
      parent;
      kind = Span.Schedule;
      name = "";
      lane = "bench";
      start_s;
      dur_s;
    }
  in
  let root = sp 1L 0.0 10.0 in
  let spans =
    [
      root;
      sp ~parent:1L 2L 1.0 2.0;
      sp ~parent:1L 3L 2.0 3.0;
      sp ~parent:1L 4L 8.0 4.0;
      sp ~parent:2L 5L 1.0 1.0;
    ]
  in
  let self = B.self_time spans in
  Alcotest.(check floats) "children union clipped to the parent" 4.0 (self root);
  Alcotest.(check floats) "grandchild counts for its own parent" 1.0
    (self (List.nth spans 1))

let test_result_line () =
  let line =
    J.to_string
      (B.result_json ~correct:true ~attempted:3 ~failed:0
         [ { B.name = "wall_s"; value = 1.25; unit_ = "s" } ])
  in
  Alcotest.(check string) "shape"
    {|{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}|}
    line

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "claims gap" `Quick test_claims_gap;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "declared metric names" `Quick test_declared_names;
          Alcotest.test_case "seeded inputs" `Quick test_inputs;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
