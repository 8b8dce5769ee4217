(** Durable run history: one JSONL record per simulation run.

    Every [vliwsim exp|run|bench] invocation appends a record to
    [_runs/ledger.jsonl] capturing the configuration (scale, seed, jobs,
    git revision, a fingerprint of the sweep shape), the outcome (the
    per-cell IPC grid with IEEE-754 bit images, merged telemetry
    counters, scalar gauges) and the sweep's fault-tolerance stats.
    [vliwsim runs diff] bit-compares two records' grids; the HTML report
    plots the cross-run trajectory from the same store.

    Storage discipline:
    - An append is one O_APPEND write of the new line under a
      process-wide mutex and a [Unix.lockf] lock on the file, so
      concurrent appenders, in one process or many, never lose a
      record. No JSON is parsed: the next id comes from each line's
      fixed [{"schema":1,"id":"rN"] prefix, which {!to_json} always
      writes first; only a line without it is parsed, on its own.
    - A crash mid-append can leave a torn final line. {!load} skips it,
      as it skips every malformed line; the next append writes a
      newline before its own line and never reissues an id the torn
      line's prefix carries.
    - {!gc} holds the same locks from its read to its atomic rename.
    - Editing earlier bytes in place while a {!Writer} is open is
      outside this contract. *)

type cell = {
  mix : string;
  scheme : string;
  ipc : float;  (** nan for a degraded cell; diffed via its bit image *)
  elapsed_s : float;
  started_s : float;
  worker : int;
  attempts : int;
  degraded : bool;
}

type run = {
  id : string;  (** assigned by {!append} as "r1", "r2", ... *)
  time_s : float;  (** unix epoch seconds when the record was made *)
  cmd : string;  (** "exp", "run" or "bench" *)
  label : string;
  git_rev : string;
  fingerprint : string;
  scale : string;
  seed : int64;
  jobs : int;
  scheme_names : string list;
  mix_names : string list;
  policy : string;
      (** Controller policy of adaptive runs; ["static"] for plain
          sweeps (and for every record written before the field
          existed). Part of the fingerprint when non-static. *)
  wall_s : float;
  cells : cell array;  (** mix-major; may be empty (bench runs) *)
  counters : (string * int) list;
  gauges : (string * float) list;
  retries : int;
  degraded : int;
  timeouts : int;
  resumed : int;
}

val default_dir : string
(** ["_runs"], relative to the working directory. *)

val ledger_path : dir:string -> string

val make :
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  ?cells:cell array ->
  ?policy:string ->
  cmd:string ->
  label:string ->
  scale:string ->
  seed:int64 ->
  jobs:int ->
  scheme_names:string list ->
  mix_names:string list ->
  wall_s:float ->
  unit ->
  run
(** Build a record for the current moment: stamps the time, names the
    git revision (["unknown"] outside a work tree), fingerprints the
    configuration and derives retry/degraded stats from [cells] and the
    counter snapshot. The id is empty until {!append} assigns one.

    The revision is resolved once per process, by the first [make]: a
    long-running daemon's records all name the revision it was started
    from, which is the code that produced them, even if the work tree
    moves on while it runs. *)

val fingerprint_of :
  ?policy:string ->
  scale:string ->
  seed:int64 ->
  scheme_names:string list ->
  mix_names:string list ->
  unit ->
  string
(** FNV-1a hash of the sweep shape; equal fingerprints mean two runs are
    meaningfully diffable. [policy] (default ["static"]) joins the hash
    only when non-static, so fingerprints recorded before adaptive runs
    existed are preserved verbatim, while an adaptive run can never
    collide with a static run over the same grid. *)

val fnv1a64 : int64 -> string -> int64
(** [fnv1a64 h s] folds the bytes of [s] into the 64-bit FNV-1a state
    [h]: the one hash behind {!fingerprint_of}, {!grid_digest} and the
    service's cache keys. *)

val fnv_offset : int64
(** The FNV-1a 64-bit offset basis, the initial state of a fresh hash. *)

val grid_digest : cell array -> string
(** FNV-1a over every cell's (mix, scheme) key and IPC bit image; equal
    digests mean bit-identical grids. *)

val hex16 : int64 -> string
(** [Printf.sprintf "%016Lx"], the image of fingerprints, digests and
    cache keys, without the format interpreter. *)

val hex64 : int64 -> string
(** [Printf.sprintf "0x%Lx"], the image of seeds and IPC bits. *)

val mean_ipc : run -> float
(** Mean over non-nan cells; nan if there are none. *)

val append : dir:string -> run -> run
(** Assign the next id (one past the highest numeric id on file, so ids
    stay unique across {!gc} gaps), append the record (creating [dir]
    if needed), and return it with its id filled in. Equivalent to
    {!Writer.open_}, {!Writer.append} and {!Writer.close}, so it reads
    the whole file once to find the next id.

    A line's id is read off its [{"schema":1,"id":"rN"] prefix, and only
    a line without it falls back to a parse of that line. A torn line
    that still carries the prefix counts, so the new id may leave a
    gap, but it never equals the id of a record {!load} returns. After
    the append the file holds exactly its previous text, a newline if
    that text lacked a final one, and the new record's line. *)

(** A ledger kept open across appends, as the [serve] daemon holds
    one. Under both locks, an append compares the open file with the one
    at the ledger's path: if it is the same file at the size of the
    last look, the cached next id stands and nothing is read; if it
    grew, only the new bytes are scanned; if it was renamed over (by
    {!gc} or {!merge}), removed or shrunk, it is reopened and scanned
    whole. Then a fence (if the file lacks a final newline) and the new
    lines go out in one write. Nothing is fsynced. *)
module Writer : sig
  type t

  val open_ : dir:string -> t
  (** A writer for [dir]'s ledger. The file (and [dir]) is opened, or
      created, by the first append. *)

  val append : ?digest:string -> t -> run -> run
  (** As {!Ledger.append}, through the open file. [digest] is the
      record's {!grid_digest}, passed by a caller that already has it
      so it is not computed twice. *)

  val append_lines : t -> string list -> unit
  (** Append raw lines (each without its newline) in one locked write,
      fenced as records are. Ids they carry count towards the next id.
      For tools and tests that write lines other than records. *)

  val close : t -> unit
  (** Release the file; a later append through the writer reopens it. *)
end

type gc_report = { kept : run list; dropped : run list }
(** Both in file order; surviving records keep their original ids. *)

val gc : ?dry_run:bool -> dir:string -> unit -> gc_report
(** Compact the ledger: of the records sharing a (configuration
    fingerprint, grid digest) pair, keep only the newest. Records with
    equal fingerprints but {e different} grid bits are never collapsed —
    they are drift evidence. With [dry_run] (default false) the file is
    left untouched; otherwise the survivors are rewritten atomically
    (a no-op when nothing was dropped), under the append lock from the
    read to the rename. *)

type merge_report = { added : run list; skipped : run list }
(** [added] carry their newly assigned target ids; [skipped] are source
    records whose results the target already holds. *)

val merge :
  ?dry_run:bool -> dir:string -> from:string list -> unit -> merge_report
(** Merge other ledgers (e.g. per-worker [_runs] directories from a
    distributed sweep) into [dir], applying {!gc}'s deduplication on
    the way in: a source record whose (fingerprint, grid digest) pair
    is already represented — in the target, or by an earlier source
    record of this merge — is skipped as an identical duplicate, while
    same-fingerprint records with different grid bits always merge
    (drift evidence). Added records keep their content verbatim but
    get fresh target ids, numbered as successive {!append}s would.
    Every added record lands in one locked write. With [dry_run]
    nothing is written. *)

val load : dir:string -> run list
(** All parseable records in file (= chronological) order; [] if the
    ledger does not exist yet. *)

val find : dir:string -> string -> run option
(** Look up by id; the alias ["latest"] resolves to the newest record. *)

val latest : dir:string -> run option

type drift =
  | Identical  (** every cell bit-identical *)
  | Shape_mismatch of string  (** different cell count or (mix, scheme) layout *)
  | Drift of {
      mix : string;  (** first differing cell, in grid order *)
      scheme : string;
      ipc_a : float;
      ipc_b : float;
      differing : int;  (** total number of differing cells *)
    }

val diff : run -> run -> drift
(** Bit-compare two runs' grids. Attribution is deterministic: the named
    cell is the first differing one in mix-major grid order. *)

val to_json : ?digest:string -> run -> Vliw_util.Json.t
(** [digest], when given, must be [grid_digest r.cells]; it is computed
    when absent. *)

val of_json : Vliw_util.Json.t -> run option
(** [None] if required fields are missing; unknown fields are ignored
    (forward compatibility with later schema additions). *)
