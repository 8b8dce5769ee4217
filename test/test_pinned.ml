(* Pinned observation contract.

   Over fixed quick-scale cells, every counter an observed run books
   (stall attribution, event tallies, reconfiguration and controller
   counters) and the full typed event stream, in order, hash to a golden
   digest per case. The bit-identity properties elsewhere compare IPC
   and attribution sums; this test makes the event order and every
   attribution bucket part of the contract. Decision-cache counters
   ([merge.memo.*]) describe simulator throughput, not the machine, and
   are left out. *)

module M = Vliw_merge
module Sim = Vliw_sim
module T = Vliw_telemetry
module E = Vliw_experiments

let mix = "LLHH"
let seed = 0x91EDL

let is_memo name =
  String.length name >= 11 && String.sub name 0 11 = "merge.memo."

let digest_of ~snap ~recorder =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (name, v) ->
      if not (is_memo name) then Printf.bprintf b "%s=%d\n" name v)
    snap.T.Counters.counters;
  List.iter
    (fun (name, (h : T.Counters.hist_snapshot)) ->
      Printf.bprintf b "%s:%d:%h\n" name h.total h.sum;
      Array.iter (fun c -> Printf.bprintf b " %d" c) h.counts)
    snap.T.Counters.histograms;
  T.Recorder.iter recorder (fun (e : T.Recorder.entry) ->
      Printf.bprintf b "%d %s" e.cycle (T.Event.name e.event);
      List.iter (fun (k, v) -> Printf.bprintf b " %s=%s" k v) (T.Event.args e.event);
      Buffer.add_char b '\n');
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

(* One observed quick-scale cell: counters attached, every event
   recorded (the buffer must not wrap, or the digest would only cover a
   suffix of the stream). *)
let observed ?controller config =
  let counters = T.Counters.create () in
  let recorder = T.Recorder.create ~capacity:(1 lsl 19) () in
  let profiles = (Vliw_workloads.Mixes.find_exn mix).members in
  ignore
    (Sim.Multitask.run config ~seed
       ~schedule:(E.Common.schedule_of_scale E.Common.Quick)
       ~telemetry:(T.Recorder.sink recorder) ~counters ?controller profiles
      : Sim.Metrics.t);
  Alcotest.(check int) "event buffer did not wrap" 0 (T.Recorder.dropped recorder);
  let snap = T.Counters.snapshot counters in
  (snap, digest_of ~snap ~recorder)

let scheme name = (M.Catalog.find_exn name).scheme

let merged name () = observed (Sim.Config.make (scheme name))

let policy p () = observed (Sim.Config.make ~policy:p (scheme "2SC3"))

let adaptive () =
  let controller =
    Sim.Controller.create Sim.Controller.default_oracle
      ~candidates:(Sim.Controller.group_candidates "2SC3")
      ~initial:"2SC3"
  in
  let snap, digest = observed ~controller (Sim.Config.make (scheme "2SC3")) in
  Alcotest.(check bool) "the adaptive cell switched scheme" true
    (T.Counters.count snap T.Report.n_scheme_switches > 0);
  (snap, digest)

let cases =
  [
    ("merged 1S", merged "1S", "64b03a3be8f30179");
    ("merged C4", merged "C4", "9518b7eacf2d5300");
    ("merged 3SSS", merged "3SSS", "6b563da0c8374d4f");
    ("merged 2SC3", merged "2SC3", "37641f3f1f77e12a");
    ("imt", policy Sim.Policy.Imt, "bde832991129d947");
    ("bmt penalty 3", policy (Sim.Policy.Bmt { switch_penalty = 3 }), "3fa495bfd1c35943");
    ("adaptive oracle", adaptive, "d69917657bb7370f");
  ]

let test_pinned (name, run, golden) () =
  let _, digest = run () in
  Alcotest.(check string) (name ^ ": counters + events digest") golden digest

let suite =
  ( "observe",
    List.map
      (fun ((name, _, _) as case) ->
        Alcotest.test_case ("pinned " ^ name) `Quick (test_pinned case))
      cases )
