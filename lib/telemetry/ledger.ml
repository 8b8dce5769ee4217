(* The run ledger: a durable, append-only history of simulation runs.

   Every `vliwsim exp|run|bench` invocation appends one JSONL line to
   [_runs/ledger.jsonl] recording what ran (command, label, git
   revision, configuration fingerprint), how (scale, seed, jobs,
   wall-clock), and what came out: the per-cell IPC grid with each
   cell's IEEE-754 bit image, the merged telemetry counter snapshot,
   and the sweep's fault-tolerance stats (retries / degraded cells /
   timeouts / resumed cells). That makes cross-revision drift a
   first-class query — `vliwsim runs diff A B` bit-compares two grids
   and names the first differing (mix, scheme) cell — and feeds the
   HTML report's cross-run trajectory chart.

   Storage discipline:
   - IPC values are stored twice: a decimal [ipc] for human readers and
     grep, and the hex bit image [bits] which is authoritative. A run
     round-tripped through the ledger diffs as Identical against the
     original, including nan (degraded) cells.
   - An append is one locked O_APPEND write (see [Writer]). A kill
     mid-append can leave a torn final line, which [load] skips like
     any malformed line and the next append fences off with a newline.
   - Ids are assigned at append time as "r1", "r2", ... in file order,
     so CLI invocations can name runs cheaply. The next id is read off
     each line's fixed [{"schema":1,"id":"rN"] prefix, not by parsing
     the ledger, so an append's cost does not grow with a JSON parse of
     every record. *)

type cell = {
  mix : string;
  scheme : string;
  ipc : float;  (* nan for a degraded cell; compared via its bits *)
  elapsed_s : float;
  started_s : float;
  worker : int;
  attempts : int;
  degraded : bool;
}

type run = {
  id : string;  (* "" until [append] assigns one *)
  time_s : float;  (* unix epoch seconds when the record was made *)
  cmd : string;  (* exp | run | bench *)
  label : string;  (* experiment id, "SCHEME on MIX", bench mode... *)
  git_rev : string;
  fingerprint : string;  (* hash of (scale, seed, schemes, mixes) *)
  scale : string;
  seed : int64;
  jobs : int;
  scheme_names : string list;
  mix_names : string list;
  policy : string;
      (* controller policy of adaptive runs ("static" for plain sweeps);
         part of the fingerprint, so adaptive never collides with static *)
  wall_s : float;
  cells : cell array;  (* mix-major, possibly empty for bench runs *)
  counters : (string * int) list;  (* merged telemetry snapshot *)
  gauges : (string * float) list;  (* scalar results (ipc.mean, ...) *)
  retries : int;
  degraded : int;
  timeouts : int;
  resumed : int;
}

let default_dir = "_runs"

let ledger_path ~dir = Filename.concat dir "ledger.jsonl"

(* --- hashing ---------------------------------------------------------- *)

let fnv_byte h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L

(* A [for] loop over a local ref rather than a [String.fold_left]
   closure: the ref's [Int64] stays unboxed, where the closure's
   accumulator is boxed once per byte. *)
let fnv1a64 init s =
  let h = ref init in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h s.[i]
  done;
  !h

let fnv_offset = 0xCBF29CE484222325L

(* --- hex images --------------------------------------------------------- *)

(* The images [Printf]'s %Lx conversions print, built without its
   format interpreter: digit [k] counts nibbles from the least
   significant end, and [hex_width v] is the digit count of %Lx. *)
let hex_digit v k =
  "0123456789abcdef".[Int64.to_int (Int64.shift_right_logical v (4 * k)) land 15]

let hex_width v =
  let rec go n =
    if n < 16 && Int64.shift_right_logical v (4 * n) <> 0L then go (n + 1) else n
  in
  go 1

(* [Printf.sprintf "%016Lx" v] *)
let hex16 v = String.init 16 (fun i -> hex_digit v (15 - i))

(* [Printf.sprintf "0x%Lx" v] *)
let hex64 v =
  let n = hex_width v in
  String.init (n + 2) (fun i ->
      if i = 0 then '0' else if i = 1 then 'x' else hex_digit v (n + 1 - i))

(* --- fingerprints and digests ------------------------------------------ *)

(* The policy joins the key only when non-static, so every fingerprint
   recorded before adaptive runs existed is preserved verbatim. *)
let fingerprint_of ?(policy = "static") ~scale ~seed ~scheme_names ~mix_names ()
    =
  let key =
    String.concat "\x00"
      ((scale :: hex64 seed :: scheme_names)
      @ ("|" :: mix_names)
      @ (if policy = "static" then [] else [ "policy:" ^ policy ]))
  in
  hex16 (fnv1a64 fnv_offset key)

(* FNV-1a over each cell's [mix ^ "/" ^ scheme] and the %Lx image of
   its IPC bits, folded byte by byte without building either string. *)
let grid_digest cells =
  let h = ref fnv_offset in
  for i = 0 to Array.length cells - 1 do
    let c = cells.(i) in
    h := fnv1a64 (fnv_byte (fnv1a64 !h c.mix) '/') c.scheme;
    let bits = Int64.bits_of_float c.ipc in
    for k = hex_width bits - 1 downto 0 do
      h := fnv_byte !h (hex_digit bits k)
    done
  done;
  hex16 !h

(* --- environment ------------------------------------------------------ *)

(* Resolved once per process, on first use: a long-lived daemon's
   records name the revision it was started from — the code that
   actually produced them — without a fork+exec per record. The lock
   makes the first force safe from any domain. *)
let git_rev_lock = Mutex.create ()

let git_rev_once =
  lazy
    (match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception _ -> "unknown"
    | ic ->
      let line = try input_line ic with End_of_file -> "" in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
      | exception _ -> "unknown"))

let git_rev () = Mutex.protect git_rev_lock (fun () -> Lazy.force git_rev_once)

let make ?(counters = []) ?(gauges = []) ?(cells = [||]) ?(policy = "static")
    ~cmd ~label ~scale ~seed ~jobs ~scheme_names ~mix_names ~wall_s () =
  let count name = try List.assoc name counters with Not_found -> 0 in
  {
    id = "";
    time_s = Unix.gettimeofday ();
    cmd;
    label;
    git_rev = git_rev ();
    fingerprint = fingerprint_of ~policy ~scale ~seed ~scheme_names ~mix_names ();
    scale;
    seed;
    jobs;
    scheme_names;
    mix_names;
    policy;
    wall_s;
    cells;
    counters;
    gauges;
    retries =
      Array.fold_left (fun acc c -> acc + max 0 (c.attempts - 1)) 0 cells;
    degraded =
      Array.fold_left
        (fun acc (c : cell) -> acc + (if c.degraded then 1 else 0))
        0 cells;
    timeouts = count "sweep.timeouts";
    resumed = count "sweep.resumed_cells";
  }

let mean_ipc run =
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (fun c ->
      if not (Float.is_nan c.ipc) then begin
        sum := !sum +. c.ipc;
        incr n
      end)
    run.cells;
  if !n = 0 then Float.nan else !sum /. float_of_int !n

(* --- JSON (de)serialization ------------------------------------------ *)

module J = Vliw_util.Json

let cell_to_json c =
  J.Obj
    ([
       ("mix", J.Str c.mix);
       ("scheme", J.Str c.scheme);
       ("ipc", J.Num c.ipc);
       ("bits", J.Str (hex64 (Int64.bits_of_float c.ipc)));
       ("t", J.Num c.elapsed_s);
       ("at", J.Num c.started_s);
       ("w", J.Num (float_of_int c.worker));
       ("n", J.Num (float_of_int c.attempts));
     ]
    @ if c.degraded then [ ("deg", J.Bool true) ] else [])

let to_json ?digest r =
  let digest =
    match digest with Some d -> d | None -> grid_digest r.cells
  in
  J.Obj
    ([
      ("schema", J.Num 1.0);
      ("id", J.Str r.id);
      ("time_s", J.Num r.time_s);
      ("cmd", J.Str r.cmd);
      ("label", J.Str r.label);
      ("git", J.Str r.git_rev);
      ("fp", J.Str r.fingerprint);
      ("scale", J.Str r.scale);
      ("seed", J.Str (hex64 r.seed));
      ("jobs", J.Num (float_of_int r.jobs));
      ("schemes", J.List (List.map (fun s -> J.Str s) r.scheme_names));
      ("mixes", J.List (List.map (fun s -> J.Str s) r.mix_names));
    ]
    @ (* serialized only when non-static: records written before the
         field existed load back identically *)
    (if r.policy = "static" then [] else [ ("policy", J.Str r.policy) ])
    @ [
      ("wall_s", J.Num r.wall_s);
      ("digest", J.Str digest);
      ("cells", J.List (Array.to_list (Array.map cell_to_json r.cells)));
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) r.counters)
      );
      ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) r.gauges));
      ("retries", J.Num (float_of_int r.retries));
      ("degraded", J.Num (float_of_int r.degraded));
      ("timeouts", J.Num (float_of_int r.timeouts));
      ("resumed", J.Num (float_of_int r.resumed));
    ])

let str_field j key = Option.bind (J.member key j) J.to_string_opt

let num_field j key = Option.bind (J.member key j) J.to_float

let int_field j key default =
  match Option.bind (J.member key j) J.to_int with Some v -> v | None -> default

let names_field j key =
  match Option.bind (J.member key j) J.to_list with
  | Some items -> List.filter_map J.to_string_opt items
  | None -> []

let cell_of_json j =
  match (str_field j "mix", str_field j "scheme") with
  | Some mix, Some scheme ->
    (* [bits] is authoritative when present (exact, nan-safe); the
       decimal [ipc] is the fallback for hand-written records. *)
    let ipc =
      match Option.bind (str_field j "bits") Int64.of_string_opt with
      | Some bits -> Int64.float_of_bits bits
      | None -> (
        match num_field j "ipc" with Some v -> v | None -> Float.nan)
    in
    Some
      {
        mix;
        scheme;
        ipc;
        elapsed_s = Option.value ~default:0.0 (num_field j "t");
        started_s = Option.value ~default:0.0 (num_field j "at");
        worker = int_field j "w" 0;
        attempts = int_field j "n" 1;
        degraded =
          (match Option.bind (J.member "deg" j) J.to_bool with
          | Some b -> b
          | None -> false);
      }
  | _ -> None

let assoc_of_obj j key of_num =
  match J.member key j with
  | Some (J.Obj fields) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, of_num n)) (J.to_float v))
      fields
  | _ -> []

let of_json j =
  match (str_field j "cmd", str_field j "label") with
  | Some cmd, Some label ->
    let cells =
      match Option.bind (J.member "cells" j) J.to_list with
      | Some items -> Array.of_list (List.filter_map cell_of_json items)
      | None -> [||]
    in
    Some
      {
        id = Option.value ~default:"" (str_field j "id");
        time_s = Option.value ~default:0.0 (num_field j "time_s");
        cmd;
        label;
        git_rev = Option.value ~default:"unknown" (str_field j "git");
        fingerprint = Option.value ~default:"" (str_field j "fp");
        scale = Option.value ~default:"default" (str_field j "scale");
        seed =
          Option.value ~default:0L
            (Option.bind (str_field j "seed") Int64.of_string_opt);
        jobs = int_field j "jobs" 1;
        scheme_names = names_field j "schemes";
        mix_names = names_field j "mixes";
        policy = Option.value ~default:"static" (str_field j "policy");
        wall_s = Option.value ~default:0.0 (num_field j "wall_s");
        cells;
        counters = assoc_of_obj j "counters" int_of_float;
        gauges = assoc_of_obj j "gauges" Fun.id;
        retries = int_field j "retries" 0;
        degraded = int_field j "degraded" 0;
        timeouts = int_field j "timeouts" 0;
        resumed = int_field j "resumed" 0;
      }
  | _ -> None

(* --- persistence ------------------------------------------------------ *)

let read_text ~dir =
  let path = ledger_path ~dir in
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

(* [String.trim line = ""] without copying the line. *)
let is_blank line =
  String.for_all
    (function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false)
    line

let parse_line line =
  match J.parse line with
  | Ok j -> of_json j
  | Error _ -> None (* torn/corrupt line: skip, don't abort *)

let runs_of_text text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line -> if is_blank line then None else parse_line line)

let load ~dir = runs_of_text (read_text ~dir)

(* Ids are max+1, not count+1: [gc] leaves gaps in the sequence, and a
   fresh id must never collide with a surviving record's. *)
let numeric_id r =
  if String.length r.id > 1 && r.id.[0] = 'r' then
    int_of_string_opt (String.sub r.id 1 (String.length r.id - 1))
  else None

(* [to_json] always writes the schema and the id first, so a record's
   line starts with this prefix followed by the id's digits and a
   closing quote. *)
let id_prefix = {|{"schema":1,"id":"r|}

let rec digits_end text i stop =
  if i < stop && text.[i] >= '0' && text.[i] <= '9' then
    digits_end text (i + 1) stop
  else i

(* The numeric id of the line [text.[start, stop)]: read off the prefix
   when the line carries it, else by parsing that one line as [load]
   would. A torn line that still carries the prefix counts, so the next
   id may skip a number, but it can never repeat one [load] returns. *)
let line_id text start stop =
  let plen = String.length id_prefix in
  let rec prefixed i =
    i = plen || (text.[start + i] = id_prefix.[i] && prefixed (i + 1))
  in
  let d = start + plen in
  let e = if stop - start > plen && prefixed 0 then digits_end text d stop else d in
  if e > d && e < stop && text.[e] = '"' then
    int_of_string_opt (String.sub text d (e - d))
  else
    let line = String.sub text start (stop - start) in
    if is_blank line then None else Option.bind (parse_line line) numeric_id

(* One past the highest numeric id in the ledger text, without parsing
   the records that carry the prefix. *)
let next_id text =
  let len = String.length text in
  let rec go start acc =
    let stop =
      match String.index_from_opt text start '\n' with Some i -> i | None -> len
    in
    let acc =
      match line_id text start stop with Some n -> max acc n | None -> acc
    in
    if stop >= len then acc else go (stop + 1) acc
  in
  1 + go 0 0

(* Successive ids from [next], in list order. *)
let numbered next runs =
  List.mapi (fun k r -> { r with id = Printf.sprintf "r%d" (next + k) }) runs

(* The one append path. The writer keeps the ledger open and remembers
   how much of it it has scanned, so a steady-state append reads
   nothing: it serializes the record and issues one O_APPEND write.
   Two locks order appenders: a process-wide mutex for the domains of
   one process (POSIX record locks never exclude a process from itself,
   and closing any descriptor of the file drops them) and [Unix.lockf]
   on the file for other processes. [gc] and [merge] take the same
   pair. *)
module Writer = struct
  type t = {
    path : string;
    mutable fd : Unix.file_descr option;  (* opened by the first append *)
    mutable seen : int;  (* bytes of the open file already scanned *)
    mutable next : int;  (* one past the highest id in those bytes *)
    mutable fenced : bool;  (* those bytes are empty or end in '\n' *)
  }

  let process_lock = Mutex.create ()

  let open_ ~dir =
    { path = ledger_path ~dir; fd = None; seen = 0; next = 1; fenced = true }

  let rescan t =
    t.seen <- 0;
    t.next <- 1;
    t.fenced <- true

  let forget t =
    Option.iter Unix.close t.fd;
    t.fd <- None;
    rescan t

  let close t = Mutex.protect process_lock (fun () -> forget t)

  (* [lockf] covers the file from the current offset on, so rewind
     first: every lock and unlock then covers the whole file. A signal
     (the daemon's drain) may interrupt the wait for another process. *)
  let rec lock fd cmd =
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    try Unix.lockf fd cmd 0
    with Unix.Unix_error (Unix.EINTR, _, _) -> lock fd cmd

  (* Lock the file that is at [path] now. [gc] and [merge] replace the
     ledger by rename, so a lock won on a file that has since been
     renamed over (or removed) is dropped, and the new file is opened,
     locked and later scanned from its start. *)
  let rec acquire t =
    let fd =
      match t.fd with
      | Some fd -> fd
      | None ->
        let dir = Filename.dirname t.path in
        (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ());
        let flags = Unix.[ O_RDWR; O_APPEND; O_CREAT; O_CLOEXEC ] in
        let fd = Unix.openfile t.path flags 0o644 in
        t.fd <- Some fd;
        fd
    in
    lock fd Unix.F_LOCK;
    let st = Unix.fstat fd in
    match Unix.stat t.path with
    | p when p.st_dev = st.st_dev && p.st_ino = st.st_ino -> (fd, st.st_size)
    | _ | (exception Unix.Unix_error (Unix.ENOENT, _, _)) ->
      forget t;
      acquire t

  (* [f fd size] with both locks held on the file at [path]. *)
  let locked t f =
    Mutex.protect process_lock (fun () ->
        let fd, size = acquire t in
        Fun.protect
          ~finally:(fun () -> if t.fd = Some fd then lock fd Unix.F_ULOCK)
          (fun () -> f fd size))

  let read_range fd off len =
    let buf = Bytes.create len in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let rec fill pos =
      if pos = len then pos
      else match Unix.read fd buf pos (len - pos) with 0 -> pos | n -> fill (pos + n)
    in
    let n = fill 0 in
    if n = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 n

  (* One locked write of the lines [render next] returns. First [next]
     and [fenced] are brought up to the bytes on file: nothing is read
     if the file is as the last write left it, only the new suffix if
     another writer grew it, and everything if it shrank. A failed
     write leaves the file's state unknown, so the next one rescans. *)
  let write t render =
    locked t (fun fd size ->
        if size < t.seen then rescan t;
        let suffix = read_range fd t.seen (size - t.seen) in
        if suffix <> "" then begin
          t.next <- max t.next (next_id suffix);
          t.seen <- t.seen + String.length suffix;
          t.fenced <- String.ends_with ~suffix:"\n" suffix
        end;
        let lines, result = render t.next in
        if lines <> [] then begin
          let text =
            String.concat "\n" ((if t.fenced then [] else [ "" ]) @ lines @ [ "" ])
          in
          (try ignore (Unix.write_substring fd text 0 (String.length text))
           with e ->
             forget t;
             raise e);
          t.next <- max t.next (next_id text);
          t.seen <- t.seen + String.length text;
          t.fenced <- true
        end;
        result)

  let append_all t runs =
    write t (fun next ->
        let runs = numbered next runs in
        (List.map (fun r -> J.to_string (to_json r)) runs, runs))

  let append ?digest t run =
    write t (fun next ->
        let r = { run with id = Printf.sprintf "r%d" next } in
        ([ J.to_string (to_json ?digest r) ], r))

  let append_lines t lines = write t (fun _ -> (lines, ()))
end

let with_writer ~dir f =
  let w = Writer.open_ ~dir in
  Fun.protect ~finally:(fun () -> Writer.close w) (fun () -> f w)

let append ~dir run = with_writer ~dir (fun w -> Writer.append w run)

type gc_report = { kept : run list; dropped : run list }

(* Deduplication key: configuration fingerprint AND grid digest. Two
   records with the same fingerprint but different bits are drift
   evidence (same config, different code revisions) — gc must never
   collapse them, or [runs diff] loses its witnesses. A real gc holds
   the writer's locks from its read to its rename, so no append made
   meanwhile is lost. *)
let gc ?(dry_run = false) ~dir () =
  let compact runs =
    let key r = r.fingerprint ^ "\x00" ^ grid_digest r.cells in
    let newest = Hashtbl.create 16 in
    List.iteri (fun i r -> Hashtbl.replace newest (key r) i) runs;
    let kept = ref [] and dropped = ref [] in
    List.iteri
      (fun i r ->
        if Hashtbl.find newest (key r) = i then kept := r :: !kept
        else dropped := r :: !dropped)
      runs;
    { kept = List.rev !kept; dropped = List.rev !dropped }
  in
  let path = ledger_path ~dir in
  if dry_run || not (Sys.file_exists path) then compact (load ~dir)
  else
    with_writer ~dir (fun w ->
        Writer.locked w (fun fd size ->
            let report = compact (runs_of_text (Writer.read_range fd 0 size)) in
            if report.dropped <> [] then
              Vliw_util.Atomic_io.write_file ~path
                (String.concat ""
                   (List.map (fun r -> J.to_string (to_json r) ^ "\n") report.kept));
            report))

type merge_report = { added : run list; skipped : run list }

(* Merging worker ledgers reuses [gc]'s deduplication key: a record
   whose (fingerprint, grid digest) pair is already represented in the
   target — or by an earlier source record this merge added — is an
   identical result computed twice and is skipped. Same-fingerprint
   records with different bits are drift evidence and always merge.
   Added records get fresh target ids; their content (including the
   original timestamp and git revision) is preserved verbatim. All
   added records land in one locked write. *)
let merge ?(dry_run = false) ~dir ~from () =
  let text = read_text ~dir in
  let key r = r.fingerprint ^ "\x00" ^ grid_digest r.cells in
  let seen = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace seen (key r) ()) (runs_of_text text);
  let added = ref [] and skipped = ref [] in
  List.iter
    (fun src ->
      List.iter
        (fun r ->
          if Hashtbl.mem seen (key r) then skipped := r :: !skipped
          else begin
            Hashtbl.replace seen (key r) ();
            added := r :: !added
          end)
        (load ~dir:src))
    from;
  let added = List.rev !added in
  let added =
    if added = [] then []
    else if dry_run then numbered (next_id text) added
    else with_writer ~dir (fun w -> Writer.append_all w added)
  in
  { added; skipped = List.rev !skipped }

let find ~dir wanted =
  let runs = load ~dir in
  match List.find_opt (fun r -> r.id = wanted) runs with
  | Some r -> Some r
  | None ->
    (* "latest" convenience alias, so scripts need no id bookkeeping. *)
    if wanted = "latest" then
      match List.rev runs with last :: _ -> Some last | [] -> None
    else None

let latest ~dir =
  match List.rev (load ~dir) with last :: _ -> Some last | [] -> None

(* --- drift ------------------------------------------------------------ *)

type drift =
  | Identical
  | Shape_mismatch of string
  | Drift of {
      mix : string;
      scheme : string;
      ipc_a : float;
      ipc_b : float;
      differing : int;
    }

let diff a b =
  let keys r =
    Array.to_list (Array.map (fun c -> (c.mix, c.scheme)) r.cells)
  in
  if Array.length a.cells <> Array.length b.cells then
    Shape_mismatch
      (Printf.sprintf "%d cells vs %d cells" (Array.length a.cells)
         (Array.length b.cells))
  else if keys a <> keys b then
    Shape_mismatch "cell (mix, scheme) layouts differ"
  else begin
    let first = ref None and differing = ref 0 in
    Array.iteri
      (fun i ca ->
        let cb = b.cells.(i) in
        if Int64.bits_of_float ca.ipc <> Int64.bits_of_float cb.ipc then begin
          incr differing;
          if !first = None then first := Some (ca, cb)
        end)
      a.cells;
    match !first with
    | None -> Identical
    | Some (ca, cb) ->
      Drift
        {
          mix = ca.mix;
          scheme = ca.scheme;
          ipc_a = ca.ipc;
          ipc_b = cb.ipc;
          differing = !differing;
        }
  end
