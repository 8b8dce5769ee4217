(* The result cache: a hash table from cell fingerprints to IPC values.

   Keys hash (scale, seed, mix, scheme) with the same FNV-1a the ledger
   uses for its fingerprints, NUL-separated so no field concatenation
   can collide with another split of the same bytes. Values are the raw
   floats — equal keys imply bit-equal IPC (cells are pure functions of
   the key), so insertion order between duplicate sources is
   irrelevant. *)

module Ledger = Vliw_telemetry.Ledger

(* FNV-1a is a left fold, so the key's shared head "cell\0scale\0seed\0"
   is hashed once per (scale, seed) and each cell folds in only
   "mix\0scheme". *)
type row = int64

let row ~scale ~seed =
  let h = Ledger.fnv1a64 Ledger.fnv_offset "cell\x00" in
  let h = Ledger.fnv1a64 (Ledger.fnv1a64 h scale) "\x00" in
  Ledger.fnv1a64 (Ledger.fnv1a64 h (Ledger.hex64 seed)) "\x00"

let row_key row ~mix ~scheme =
  let h = Ledger.fnv1a64 (Ledger.fnv1a64 row mix) "\x00" in
  Ledger.hex16 (Ledger.fnv1a64 h scheme)

let cell_key ~scale ~seed ~mix ~scheme = row_key (row ~scale ~seed) ~mix ~scheme

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
      if cacheable_run r then begin
        let row = row ~scale:r.scale ~seed:r.seed in
        Array.iter
          (fun (c : Ledger.cell) ->
            if not c.degraded then
              add t ~key:(row_key row ~mix:c.mix ~scheme:c.scheme) ~ipc:c.ipc)
          r.cells
      end)
    (Ledger.load ~dir);
  size t
