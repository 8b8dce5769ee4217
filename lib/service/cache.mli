(** Content-addressed per-cell result cache over the run ledger.

    A sweep cell's IPC is a pure function of (scale, master seed, mix,
    static scheme) — {!Vliw_experiments.Sweep} compiles each mix from a
    seed derived only from the master seed and the mix name, and every
    scheme column shares its row's seed. That purity is what makes the
    cell result content-addressable: {!cell_key} fingerprints exactly
    those four inputs, and a hit can be served without simulating,
    bit-identical to a cold run.

    {!preload} indexes [_runs/ledger.jsonl]: only static-policy
    [exp]/[serve] records are ingested — their cells come from the
    standard sweep derivation. [run] records simulate from the master
    seed directly (a different derivation over the same names) and
    adaptive records depend on a controller, so both are skipped.
    Degraded cells (nan) are never cached: a resubmission should retry
    them. *)

val cell_key :
  scale:string -> seed:int64 -> mix:string -> scheme:string -> string
(** FNV-1a fingerprint of the cell's full input. *)

type row
(** The key's hash state after the (scale, seed) it shares with every
    cell of one sweep. *)

val row : scale:string -> seed:int64 -> row

val row_key : row -> mix:string -> scheme:string -> string
(** [row_key (row ~scale ~seed) ~mix ~scheme] is
    [cell_key ~scale ~seed ~mix ~scheme], hashing only the cell's own
    bytes. *)

type t

val create : unit -> t

val preload : t -> dir:string -> int
(** Index every cacheable cell of the ledger in [dir]; returns how many
    distinct cells the cache now holds. Records appended later are
    picked up by the server's own {!add} calls, not by re-reading. *)

val find : t -> key:string -> float option
(** The cached IPC (bit-exact) or [None] for a cold cell. *)

val add : t -> key:string -> ipc:float -> unit
(** Record a freshly simulated cell. nan (degraded) results are
    ignored. *)

val size : t -> int

val cacheable_run : Vliw_telemetry.Ledger.run -> bool
(** Whether {!preload} would ingest this record's cells. *)
