(** Crash-safe (temp-file + rename) file writes.

    The primitive behind {!Csv.write}, the checkpoint journal, the run
    ledger, and every other load-bearing file the tooling produces: a
    reader observes either the old content or the complete new content,
    never a torn file. A raising writer (or a kill mid-write) leaves the
    destination untouched, with at worst a stale [.tmp] beside it. *)

val with_file : path:string -> (out_channel -> unit) -> unit
(** [with_file ~path f] runs [f] on a channel to [path ^ ".tmp"], then
    renames the temp file over [path]. If [f] raises, the temp file is
    removed and the exception re-raised. *)

val write_file : path:string -> string -> unit
(** [write_file ~path content] replaces [path] with [content]
    atomically. *)
