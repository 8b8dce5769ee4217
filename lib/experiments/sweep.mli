(** Declarative, deterministic, multicore (mix x scheme) sweep engine.

    Programs are compiled once per mix in the calling domain; each
    (mix, scheme) cell then simulates independently and cells are
    dispatched through {!Vliw_util.Pool}. Determinism is normative:
    results are bit-identical for any [jobs] value (property-tested).

    Seeding: every mix row gets an independently derived simulation
    seed (a SplitMix64 scramble of the master seed and the mix name).
    All scheme columns within a row deliberately share the row seed, so
    schemes are compared on identical workloads and the parallel/serial
    scheme equivalences (3CCC = C4, 2SC3 = 3SCC) stay bit-exact in
    simulation.

    Fault tolerance (opt-in): a cell whose simulation raises — or trips
    {!inject_failure}, or exceeds [cell_timeout_s] — is retried up to
    [max_retries] times, then recorded as a {e degraded} cell
    ([ipc = nan], [error = Some _]) instead of aborting the sweep.
    Because a cell is a pure function of its row seed, retries cannot
    change results. With [checkpoint], completed cells are journaled
    crash-safely ({!Checkpoint}); with [resume], journaled cells are
    restored bit-identically and only missing cells simulate. *)

type column = {
  col_name : string;
      (** Display and journal name of the grid column; must be unique
          within a sweep (it is the cell/checkpoint key). *)
  col_scheme : Vliw_merge.Scheme.t;
      (** The scheme the column's simulations start on (the only scheme,
          for a static column). *)
  col_policy : string;
      (** ["static"], or the {!Vliw_sim.Controller.policy_to_string}
          descriptor of the adaptive policy driving the column — what
          the run ledger fingerprints. *)
  col_controller : (unit -> Vliw_sim.Controller.t) option;
      (** Adaptive columns carry a controller factory; it is invoked
          once {e per simulation attempt} (controllers are stateful, and
          a retried cell must replay from a pristine one to stay a pure
          function of its row seed). [None] = static column. *)
}
(** What one grid column simulates. The classic sweep is one static
    catalog scheme per column ({!static_column}); an adaptive column
    runs the same programs under a per-timeslice scheme controller. *)

val static_column : Vliw_merge.Catalog.entry -> column
(** The classic column: one fixed scheme, no controller. *)

type cell = {
  mix : string;
  scheme : string;
  ipc : float;  (** [nan] iff the cell is degraded ([error <> None]). *)
  elapsed_s : float;  (** Wall-clock seconds spent simulating the cell. *)
  started_s : float;
      (** Start offset from the sweep's epoch (the moment [run_cells]
          began dispatching), wall clock. *)
  worker : int;  (** Pool worker that simulated the cell (0-based). *)
  telemetry : Vliw_telemetry.Counters.snapshot option;
      (** Per-cell counter snapshot when telemetry was requested.
          Timing/worker/telemetry fields are observational: they vary
          run to run, while [ipc] is bit-deterministic. Harness
          accounting rides here too: [sweep.retries], [sweep.timeouts],
          [sweep.degraded], [sweep.resumed_cells]. *)
  attempts : int;
      (** Simulation attempts the cell took (1 = first try succeeded;
          0 = restored from a checkpoint without re-simulation). *)
  error : string option;
      (** [Some _] iff the cell degraded: every attempt (1 + retries)
          failed. Degraded cells render as "n/a" and are not journaled,
          so a resumed sweep retries them. *)
}

type progress = { completed : int; total : int; last : cell }

(** Live structured progress stream, richer than [progress]: lifecycle
    events for the whole sweep and for every cell attempt. A consumer
    passed as [on_event] {b must be domain-safe}: [Cell_started],
    [Cell_retried] and [Cell_degraded] fire inside worker domains, while
    [Sweep_started], [Cell_finished] (serialized through the pool's
    result callback) and [Sweep_finished] fire in the parent.
    Observation-only: consuming events cannot change results. *)
type event =
  | Sweep_started of { total : int; jobs : int; scale : string; seed : int64 }
  | Cell_started of { mix : string; scheme : string; worker : int }
  | Cell_retried of {
      mix : string;
      scheme : string;
      attempt : int;  (** the attempt that just failed, 1-based *)
      error : string;
    }
  | Cell_degraded of {
      mix : string;
      scheme : string;
      attempts : int;
      error : string;
    }
  | Cell_finished of {
      cell : cell;
      completed : int;
      total : int;
      eta_s : float;
          (** Estimated seconds to sweep completion, calibrated from the
              mean elapsed time of genuinely simulated cells (restored
              and degraded cells don't count) divided across the
              effective worker count; [nan] until one timed cell has
              completed. *)
    }
  | Sweep_finished of { total : int; degraded : int; wall_s : float }

val json_of_event : event -> Vliw_util.Json.t
(** One JSON object per event: an ["ev"] tag, a ["ts"] wall-clock stamp,
    and the event's fields. Non-finite numbers (a degraded cell's IPC,
    an uncalibrated ETA) serialize as [null]. *)

val json_logger : out_channel -> event -> unit
(** [json_logger oc] is an [on_event] consumer that writes each event as
    one NDJSON line to [oc], flushed per line so [tail -f] follows a
    live sweep. Writes are serialized through a mutex, so the consumer
    is safe across worker domains. *)

exception Cell_timeout of { elapsed_s : float; limit_s : float }
(** Raised {e inside} a cell attempt when it overran [cell_timeout_s].
    Enforcement is post-hoc — a domain cannot be preempted mid-
    simulation — so the attempt runs to completion, its result is
    discarded, and the cell is retried or degraded like any other
    failure. *)

val inject_failure : (row:int -> col:int -> bool) option ref
(** Deterministic fault-injection hook for tests: when set, each cell
    attempt at (row, col) — mix-major indices into the sweep — first
    consults the hook and raises [Failure] if it returns [true]. The
    hook is consulted once {e per attempt} (so "fail twice then
    succeed" schedules need stateful hooks) and may be called from any
    worker domain — make stateful hooks domain-safe. Reset to [None]
    after use. *)

val degraded : cell array -> cell list
(** The degraded cells of a sweep, in mix-major order. *)

val total_retries : cell array -> int
(** Total failed attempts across all cells (Σ max(0, attempts - 1)). *)

val row_seed : seed:int64 -> string -> int64
(** The simulation seed of a mix row, a pure function of the master
    seed and the mix name. *)

type prepared_row
(** One mix row, compiled and seeded exactly as {!run_cells} would:
    programs generated in the caller's domain, row seed derived from
    the master seed and the mix name, schedule fixed by the scale. The
    unit of sharing for out-of-grid cell execution (the sweep service
    compiles a mix once and simulates many scheme cells against it,
    possibly across jobs). Immutable after construction, so worker
    domains may read it concurrently. *)

val prepare_row :
  ?scale:Common.scale -> ?seed:int64 -> string -> prepared_row
(** [prepare_row ~scale ~seed mix_name]; raises like
    {!Vliw_workloads.Mixes.find_exn} on an unknown mix. *)

val prepared_mix : prepared_row -> string

val simulate_prepared : prepared_row -> column -> float
(** IPC of one (row, column) cell — bit-identical to the cell
    {!run_cells} produces for the same (scale, seed, mix, column)
    (property-tested). No telemetry, no events, no retries: the caller
    owns fault handling. Safe to call from a {!Vliw_util.Pool} worker. *)

val run :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?scheme_names:string list ->
  ?mix_names:string list ->
  ?jobs:int ->
  ?progress:(progress -> unit) ->
  ?max_retries:int ->
  ?cell_timeout_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  ?on_event:(event -> unit) ->
  unit ->
  Common.grid
(** IPC of every (mix, scheme) pair. Defaults: all 4-thread schemes of
    the catalog, all Table 2 mixes, [jobs = 1]. [jobs <= 0] uses one
    worker per core. [progress] is called after every cell, serialized
    across workers. See {!run_cells} for the fault-tolerance knobs. *)

val run_cells :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?scheme_names:string list ->
  ?columns:column list ->
  ?mix_names:string list ->
  ?jobs:int ->
  ?progress:(progress -> unit) ->
  ?telemetry:bool ->
  ?max_retries:int ->
  ?cell_timeout_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  ?on_event:(event -> unit) ->
  unit ->
  string list * string list * cell array
(** Like {!run} but returns the raw cells (mix-major order) with their
    per-cell wall-clock timings, plus the resolved scheme and mix
    names. [telemetry] (default [false]) attaches a fresh counter
    registry to each cell's simulation and snapshots it into
    {!cell.telemetry}; counting is observation-only, so IPC results are
    unchanged. Every cell is one pool task, so parallelism is over
    cells.

    [columns] generalizes [scheme_names] (the two are mutually
    exclusive): each {!column} names one grid column, carrying its
    initial scheme and, for adaptive columns, a controller factory
    invoked fresh per simulation attempt. Column names are the
    cell/checkpoint keys, so a checkpoint journal from a sweep with
    different columns never resumes into this one. A sweep over static
    columns is bit-identical to the equivalent [scheme_names] sweep
    (property-tested).

    Fault-tolerance knobs:
    - [max_retries] (default 0): failed cell attempts beyond the first
      are retried this many times before the cell degrades.
    - [cell_timeout_s]: post-hoc per-attempt wall-clock limit; an
      overrunning attempt counts as a failure ({!Cell_timeout}).
    - [checkpoint]: journal every completed cell to this path, written
      atomically after each cell; a valid journal (with the header
      already written) exists from the moment the sweep starts, so a
      kill at any point leaves a resumable file. A journal write
      failure (unwritable path) aborts the sweep.
    - [resume] (default false): restore cells recorded in [checkpoint]
      instead of re-simulating them — bit-identical, the journal stores
      raw IEEE-754 bits. A journal whose configuration header does not
      match this sweep (scale, seed, schemes, mixes, telemetry) is
      ignored with a [log] warning and the sweep starts fresh.
    - [log] (default silent): diagnostic sink for journal warnings.

    Restored cells have [attempts = 0], [elapsed_s = 0.], and — when
    telemetry is on — their journaled counters plus
    [sweep.resumed_cells = 1]. *)

val grid_of_cells :
  scheme_names:string list ->
  mix_names:string list ->
  cell array ->
  Common.grid
(** Fold mix-major cells into a grid (degraded cells surface as
    [nan]). *)

val total_elapsed_s : cell array -> float
(** Sum of per-cell wall-clock times (CPU-seconds of simulation, not
    elapsed wall time when [jobs > 1]). *)

val merged_telemetry : cell array -> Vliw_telemetry.Counters.snapshot
(** Sum of all per-cell counter snapshots (cells without telemetry
    contribute nothing). *)

val chrome_trace : ?process_name:string -> cell array -> string
(** Chrome trace-event JSON of the sweep's execution timeline: one lane
    per pool worker, one slice per cell (built from [started_s] /
    [elapsed_s]), with mix/scheme/IPC as slice arguments. Load in
    Perfetto or chrome://tracing. *)

val telemetry_csv : cell array -> string list * string list list
(** (header, rows) for {!Vliw_util.Csv.write}: one row per (cell,
    counter) — columns [mix; scheme; counter; value]. Cells without
    telemetry are skipped. *)
