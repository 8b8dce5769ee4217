(* Crash-safe file writes: the temp-file + rename primitive that used to
   live inside [Csv.atomically], promoted to a first-class utility so
   every writer of load-bearing files (CSV exports, checkpoint journals,
   Chrome traces, the run ledger, OpenMetrics textfiles, HTML reports)
   shares one torn-file-safety story.

   A reader of [path] observes either the previous content or the
   complete new content, never a truncated file: the content is written
   to [path ^ ".tmp"] and renamed over the destination, and rename is
   atomic on POSIX filesystems. If the writer raises (or the process is
   killed mid-write), the destination is untouched and at worst a stale
   .tmp is left behind. *)

let with_file ~path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match f oc with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let write_file ~path content =
  with_file ~path (fun oc -> output_string oc content)
