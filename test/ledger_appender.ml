(* One process of the concurrent-appender test: append N small records
   to the ledger in DIR, labelled LABEL-1 .. LABEL-N, either through
   [Ledger.append] (MODE = oneshot) or one held [Ledger.Writer.t]
   (MODE = held).

     ledger_appender.exe DIR N LABEL MODE *)

module L = Vliw_telemetry.Ledger

(* Each record's label is also its one scheme name, so every record
   has its own fingerprint and gc never drops one. *)
let () =
  let dir = Sys.argv.(1) and n = int_of_string Sys.argv.(2) in
  let record i =
    let label = Printf.sprintf "%s-%d" Sys.argv.(3) i in
    L.make ~cmd:"exp" ~label ~scale:"quick" ~seed:0L ~jobs:1
      ~scheme_names:[ label ] ~mix_names:[] ~wall_s:0.0 ()
  in
  match Sys.argv.(4) with
  | "held" ->
    let w = L.Writer.open_ ~dir in
    for i = 1 to n do
      ignore (L.Writer.append w (record i))
    done;
    L.Writer.close w
  | _ ->
    for i = 1 to n do
      ignore (L.append ~dir (record i))
    done
