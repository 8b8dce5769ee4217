(* The result cache: a hash table from cell fingerprints to IPC values.

   Keys hash (scale, seed, mix, scheme) with the same FNV-1a the ledger
   uses for its fingerprints, NUL-separated so no field concatenation
   can collide with another split of the same bytes. Values are the raw
   floats — equal keys imply bit-equal IPC (cells are pure functions of
   the key), so insertion order between duplicate sources is
   irrelevant. *)

module Ledger = Vliw_telemetry.Ledger

let cell_key ~scale ~seed ~mix ~scheme =
  let key =
    String.concat "\x00"
      [ "cell"; scale; Printf.sprintf "0x%Lx" seed; mix; scheme ]
  in
  Printf.sprintf "%016Lx" (Ledger.fnv1a64 Ledger.fnv_offset key)

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 1024

let find t ~key = Hashtbl.find_opt t key

let add t ~key ~ipc = if not (Float.is_nan ipc) then Hashtbl.replace t key ipc

let size t = Hashtbl.length t

(* Only records whose cells followed the standard sweep derivation may
   feed the cache: static exp sweeps, the service's own records, and
   distributed sweeps (whose grids are bit-identical to exp by
   construction). `run` records seed the simulation differently and
   adaptive records depend on controller state, so their cells are not
   addressable by (scale, seed, mix, scheme) alone. *)
let cacheable_run (r : Ledger.run) =
  (r.cmd = "exp" || r.cmd = "serve" || r.cmd = "dist") && r.policy = "static"

let preload t ~dir =
  List.iter
    (fun (r : Ledger.run) ->
      if cacheable_run r then
        Array.iter
          (fun (c : Ledger.cell) ->
            if not c.degraded then
              add t
                ~key:
                  (cell_key ~scale:r.scale ~seed:r.seed ~mix:c.mix
                     ~scheme:c.scheme)
                ~ipc:c.ipc)
          r.cells)
    (Ledger.load ~dir);
  size t
