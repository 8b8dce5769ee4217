(* The observability stack: the JSON codec, atomic file writes, the run
   ledger, the OpenMetrics exporter, the HTML report and the sweep's
   structured event stream — plus the acceptance property that running
   the whole stack (ledger + metrics + NDJSON event log) leaves the IPC
   grid bit-identical to an unobserved sweep at jobs=1 and jobs=4. *)

module J = Vliw_util.Json
module A = Vliw_util.Atomic_io
module T = Vliw_telemetry
module L = Vliw_telemetry.Ledger
module E = Vliw_experiments

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let tmp_dir () =
  let path = Filename.temp_file "vliwobs" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Json ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Num 3.0);
        ("b", J.List [ J.Null; J.Bool true; J.Str "x\"y\\z\n" ]);
        ("c", J.Obj [ ("f", J.Num 0.1); ("g", J.Num (-1.25e-7)) ]);
        ("empty", J.List []);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "parse (to_string v) = v" true (v = v')
  | Error e -> Alcotest.fail ("round trip failed: " ^ e));
  Alcotest.(check string) "integers print bare" "3" (J.number_string 3.0);
  Alcotest.(check string) "nan serializes as null" "null"
    (J.to_string (J.Num Float.nan));
  Alcotest.(check bool) "truncated document is an error" true
    (match J.parse "{\"a\":" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "trailing garbage is an error" true
    (match J.parse "1 x" with Error _ -> true | Ok _ -> false);
  Alcotest.(check (option (float 0.0))) "member/to_float" (Some 3.0)
    (Option.bind (J.member "a" v) J.to_float);
  Alcotest.(check bool) "to_float on a list is None" true
    (Option.bind (J.member "b" v) J.to_float = None);
  Alcotest.(check bool) "absent member is None" true (J.member "zz" v = None)

(* Shortest-round-trip floats: the property the ledger's decimal
   mirrors (and the OpenMetrics values) rely on. *)
let test_json_float_bits =
  QCheck.Test.make ~count:200 ~name:"json: number_string round-trips bits"
    QCheck.(float)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match J.parse (J.number_string f) with
      | Ok (J.Num f') -> Int64.bits_of_float f = Int64.bits_of_float f'
      | _ -> false)

(* --- Json.parse against its reference oracle ----------------------------- *)

(* [Json_oracle] is the parser as it was before the cursor rewrite. The
   library parser must agree with it on every input — the value (floats
   by bit image), or the exact [Error] message — and never raise.
   [Request], [Protocol] and [Ndjson] all decode through [Json.parse],
   so these properties cover every wire decoder's first stage. *)

let rec json_equal a b =
  match (a, b) with
  | J.Num x, J.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | J.List xs, J.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | J.Obj xs, J.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

let agrees_with_oracle text =
  match (J.parse text, Json_oracle.parse text) with
  | Ok a, Ok b -> json_equal a b
  | Error a, Error b -> a = b
  | _ -> false
  | exception _ -> false

(* Bytes biased towards the ones JSON's grammar and escapes care about. *)
let json_byte =
  QCheck.Gen.(
    frequency
      [
        (6, printable);
        (3, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\031'; 'u' ]);
        ( 2,
          oneofl
            [ '{'; '}'; '['; ']'; ':'; ','; ' '; '-'; '+'; '.'; 'e'; '0'; '9' ]
        );
        (1, char);
      ])

let json_number =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        float;
        map (fun (m, e) -> float_of_int m *. (10.0 ** float_of_int e))
          (pair (int_range (-999) 999) (int_range (-30) 30));
      ])

let json_value =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return J.Null);
                 (1, map (fun b -> J.Bool b) bool);
                 (3, map (fun v -> J.Num v) json_number);
                 (4, map (fun s -> J.Str s) (string_size ~gen:json_byte (0 -- 12)));
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (n / 3))));
                 ( 1,
                   map
                     (fun l -> J.Obj l)
                     (list_size (0 -- 4)
                        (pair (string_size ~gen:json_byte (0 -- 6)) (self (n / 3)))) );
               ]))

(* A string literal written by hand, with escapes the serializer never
   emits: [\/], [\b], [\f] and [\uXXXX] over arbitrary (possibly
   invalid) hex digits. *)
let escaped_literal =
  QCheck.Gen.(
    let hex = oneofl (String.to_seq "0123456789abcdefABCDEF_xg-" |> List.of_seq) in
    let piece =
      frequency
        [
          (3, map (String.make 1) printable);
          ( 2,
            map (fun c -> "\\" ^ String.make 1 c)
              (oneofl [ '"'; '\\'; '/'; 'b'; 'f'; 'n'; 'r'; 't'; 'q' ]) );
          (2, map (fun h -> "\\u" ^ h) (string_size ~gen:hex (return 4)));
        ]
    in
    map (fun ps -> "\"" ^ String.concat "" ps ^ "\"") (list_size (0 -- 8) piece))

(* Bare number images, well-formed or not: signs, leading zeros,
   negative zero, a trailing point, long mantissas and exponents. *)
let number_image =
  QCheck.Gen.(
    let digits lo hi = string_size ~gen:(char_range '0' '9') (lo -- hi) in
    map
      (fun (((sign, int_part), frac), exp) -> sign ^ int_part ^ frac ^ exp)
      (pair
         (pair
            (pair (oneofl [ ""; "-"; "+" ]) (digits 0 12))
            (oneof [ return ""; return "."; map (( ^ ) ".") (digits 1 12) ]))
         (oneof [ return ""; map (( ^ ) "e") (digits 1 3); return "e-5" ])))

let json_text =
  QCheck.Gen.(
    frequency
      [
        (4, map J.to_string json_value);
        (2, number_image);
        (1, escaped_literal);
        ( 1,
          map2
            (fun lit v -> "[" ^ lit ^ ", " ^ J.to_string v ^ "]")
            escaped_literal json_value );
      ])

(* Replace, delete or insert one byte, [k] times, then maybe truncate. *)
let mutate_text =
  QCheck.Gen.(
    let edit text =
      let n = String.length text in
      if n = 0 then map (String.make 1) json_byte
      else
        int_bound (n - 1) >>= fun i ->
        json_byte >>= fun c ->
        oneofl
          [
            String.mapi (fun j x -> if j = i then c else x) text;
            String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1);
            String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i);
          ]
    in
    let rec edits k text = if k = 0 then return text else edit text >>= edits (k - 1) in
    json_text >>= fun text ->
    int_range 0 3 >>= fun k ->
    edits k text >>= fun text ->
    bool >>= fun cut ->
    if cut && text <> "" then
      map (fun i -> String.sub text 0 i) (int_bound (String.length text))
    else return text)

let oracle_test ~name gen =
  QCheck.Test.make ~count:1000 ~name
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    agrees_with_oracle

let test_json_oracle_serialized =
  oracle_test ~name:"json: parse = oracle on serialized values" json_text

let test_json_oracle_mutated =
  oracle_test ~name:"json: parse = oracle on mutated and truncated text"
    mutate_text

let test_json_oracle_bytes =
  oracle_test ~name:"json: parse = oracle on random bytes"
    QCheck.Gen.(
      oneof
        [ string_size ~gen:json_byte (0 -- 40); string_size ~gen:char (0 -- 40) ])

(* --- Json serializer against its reference oracle ------------------------ *)

(* [Json_oracle.to_string] is the serializer as it was before the
   direct writer. The library must emit exactly its bytes: ledger
   lines, wire replies and OpenMetrics values are compared and digested
   as text. *)

(* Numbers at the serializer's seams: signed zeros, integral values on
   both sides of the 1e15 cut-off, subnormals, the extremes, the
   non-finite values that become [null], and decimals whose %.12g image
   does or does not round-trip. *)
let edge_floats =
  [
    0.0; -0.0; 1.0; -1.0; 0.5; -0.5; 0.1; 1.0 /. 3.0; 2.003325;
    999_999_999_999_999.0; -999_999_999_999_999.0; 1e15; -1e15;
    1e15 +. 1.0; 1e15 -. 0.5; 999_999_999_999_999.5; 4503599627370496.5;
    9007199254740992.0; 1e16; 1e21; 1e22; 1e-7; 123456789012.5;
    Float.min_float; 4.9e-324; -4.9e-324; 2.2250738585072009e-308;
    Float.max_float; -.Float.max_float; Float.epsilon; Float.nan;
    -.Float.nan; Float.infinity; Float.neg_infinity;
  ]

let serializer_float =
  QCheck.Gen.(
    frequency
      [
        (4, map Int64.float_of_bits ui64);
        (2, oneofl edge_floats);
        (2, json_number);
        (1, map (fun d -> 1e15 +. float_of_int d) (int_range (-1000) 1000));
        (1, map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_bound 1_000_000));
      ])

(* Quotes, backslashes, every control byte, DEL and multi-byte UTF-8. *)
let serializer_string =
  QCheck.Gen.(
    let piece =
      frequency
        [
          (4, map (String.make 1) printable);
          (2, map (String.make 1) (oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\127' ]));
          (2, map (fun c -> String.make 1 (Char.chr c)) (int_bound 0x1f));
          (1, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\xff" ]);
          (1, map (String.make 1) char);
        ]
    in
    map (String.concat "") (list_size (0 -- 16) piece))

let serializer_value =
  QCheck.Gen.(
    sized_size (0 -- 30)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return J.Null);
                 (1, map (fun b -> J.Bool b) bool);
                 (4, map (fun v -> J.Num v) serializer_float);
                 (3, map (fun s -> J.Str s) serializer_string);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> J.List l) (list_size (0 -- 5) (self (n / 3))));
                 ( 1,
                   map
                     (fun l -> J.Obj l)
                     (list_size (0 -- 5) (pair serializer_string (self (n / 3)))) );
               ]))

let test_json_writer_floats =
  QCheck.Test.make ~count:5000 ~name:"json: number_string = oracle"
    (QCheck.make ~print:(fun f -> Printf.sprintf "%h" f) serializer_float)
    (fun f ->
      J.number_string f = Json_oracle.number_string f
      && J.to_string (J.Num f) = Json_oracle.to_string (J.Num f))

let test_json_writer_strings =
  QCheck.Test.make ~count:2000 ~name:"json: escape_string = oracle"
    (QCheck.make ~print:(Printf.sprintf "%S") serializer_string)
    (fun s -> J.escape_string s = Json_oracle.escape_string s)

let test_json_writer_values =
  QCheck.Test.make ~count:2000 ~name:"json: to_string = oracle on nested values"
    (QCheck.make ~print:Json_oracle.to_string serializer_value)
    (fun v -> J.to_string v = Json_oracle.to_string v)

let test_json_writer_edges () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "to_string (Num %h)" f)
        (Json_oracle.to_string (J.Num f))
        (J.to_string (J.Num f)))
    edge_floats;
  Alcotest.(check string) "negative zero" "-0" (J.number_string (-0.0));
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Num Float.nan));
  Alcotest.(check string) "control byte" {|"\u0001"|} (J.escape_string "\001")

(* --- Atomic_io -------------------------------------------------------- *)

let test_atomic_io () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "f.txt" in
  A.write_file ~path "one";
  Alcotest.(check string) "write_file" "one" (read_file path);
  A.write_file ~path "two";
  Alcotest.(check string) "overwrite" "two" (read_file path);
  (try
     A.with_file ~path (fun oc ->
         output_string oc "half-written";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "raising writer leaves old content" "two"
    (read_file path);
  Alcotest.(check bool) "no stale temp file" false
    (Sys.file_exists (path ^ ".tmp"))

(* --- Ledger ----------------------------------------------------------- *)

let mk_cell ?(degraded = false) ~worker mix scheme ipc =
  {
    L.mix;
    scheme;
    ipc;
    elapsed_s = 0.01;
    started_s = 0.002 *. float_of_int worker;
    worker;
    attempts = (if degraded then 2 else 1);
    degraded;
  }

let grid_cells =
  [|
    mk_cell ~worker:0 "LLHH" "1S" 1.0;
    mk_cell ~worker:1 "LLHH" "2SC3" 1.25;
    mk_cell ~worker:0 "MMMM" "1S" 1.5;
    mk_cell ~worker:1 "MMMM" "2SC3" 2.0;
  |]

let mk_run ?(cells = grid_cells) ?(seed = 0xC5EEDL) ~label () =
  L.make ~cells
    ~counters:
      [
        ("core.cycles", 4000);
        ("events.fetch_stall", 12);
        ("waste.horizontal.conflict", 3);
        ("waste.vertical.empty", 7);
      ]
    ~gauges:[ ("ipc.mean", 1.4375) ]
    ~cmd:"exp" ~label ~scale:"quick" ~seed ~jobs:2
    ~scheme_names:[ "1S"; "2SC3" ] ~mix_names:[ "LLHH"; "MMMM" ] ~wall_s:0.5 ()

let test_ledger_make_and_json () =
  let r = mk_run ~label:"fig10" () in
  Alcotest.(check string) "id empty before append" "" r.L.id;
  Alcotest.(check string) "fingerprint matches fingerprint_of"
    (L.fingerprint_of ~scale:"quick" ~seed:0xC5EEDL
       ~scheme_names:[ "1S"; "2SC3" ] ~mix_names:[ "LLHH"; "MMMM" ] ())
    r.L.fingerprint;
  Alcotest.(check int) "no degraded cells" 0 r.L.degraded;
  Alcotest.(check int) "no retries" 0 r.L.retries;
  Alcotest.(check (float 1e-9)) "mean over cells" 1.4375 (L.mean_ipc r);
  (match L.of_json (L.to_json r) with
  | Some r' -> Alcotest.(check bool) "JSON round trip is exact" true (r = r')
  | None -> Alcotest.fail "of_json rejected to_json output");
  (* degraded cells: nan IPC must survive the round trip bit-exactly *)
  let d = mk_run ~label:"deg"
      ~cells:[| mk_cell ~degraded:true ~worker:0 "LLHH" "1S" Float.nan |] ()
  in
  Alcotest.(check int) "degraded derived from cells" 1 d.L.degraded;
  Alcotest.(check int) "retries derived from attempts" 1 d.L.retries;
  Alcotest.(check bool) "mean of all-degraded run is nan" true
    (Float.is_nan (L.mean_ipc d));
  match L.of_json (L.to_json d) with
  | Some d' ->
    Alcotest.(check bool) "nan cell round-trips" true
      (Int64.bits_of_float d'.L.cells.(0).L.ipc
      = Int64.bits_of_float Float.nan)
  | None -> Alcotest.fail "of_json rejected degraded run"

(* Lines another writer appends: garbage, hand-edited records. *)
let append_raw ~dir lines =
  let w = L.Writer.open_ ~dir in
  Fun.protect
    ~finally:(fun () -> L.Writer.close w)
    (fun () -> L.Writer.append_lines w lines)

let test_ledger_writer_lines () =
  let dir = tmp_dir () in
  let path = L.ledger_path ~dir in
  A.write_file ~path "two";
  let w = L.Writer.open_ ~dir in
  L.Writer.append_lines w [ "three" ];
  L.Writer.append_lines w [ "four" ];
  Alcotest.(check string) "append_lines terminates lines"
    "two\nthree\nfour\n" (read_file path);
  L.Writer.append_lines w [ "five"; "six" ];
  Alcotest.(check string) "append_lines adds no second fence"
    "two\nthree\nfour\nfive\nsix\n" (read_file path);
  L.Writer.close w;
  let fresh = Filename.concat (tmp_dir ()) "fresh" in
  append_raw ~dir:fresh [ "first" ];
  Alcotest.(check string) "append_lines creates the file" "first\n"
    (read_file (L.ledger_path ~dir:fresh))

let test_ledger_store () =
  let dir = Filename.concat (tmp_dir ()) "runs" in
  Alcotest.(check (list string)) "missing ledger loads empty" []
    (List.map (fun r -> r.L.id) (L.load ~dir));
  Alcotest.(check bool) "latest of empty ledger" true (L.latest ~dir = None);
  let r1 = L.append ~dir (mk_run ~label:"first" ()) in
  let r2 = L.append ~dir (mk_run ~label:"second" ()) in
  Alcotest.(check string) "first id" "r1" r1.L.id;
  Alcotest.(check string) "second id" "r2" r2.L.id;
  Alcotest.(check (list string)) "load keeps file order" [ "r1"; "r2" ]
    (List.map (fun r -> r.L.id) (L.load ~dir));
  (match L.find ~dir "r1" with
  | Some r -> Alcotest.(check string) "find by id" "first" r.L.label
  | None -> Alcotest.fail "r1 not found");
  (match L.find ~dir "latest" with
  | Some r -> Alcotest.(check string) "latest alias" "r2" r.L.id
  | None -> Alcotest.fail "latest not found");
  Alcotest.(check bool) "unknown id is None" true (L.find ~dir "r99" = None);
  (* malformed lines are skipped, not fatal *)
  append_raw ~dir [ "{not json"; "[1,2,3]" ];
  Alcotest.(check int) "malformed lines skipped on load" 2
    (List.length (L.load ~dir));
  (* ids keep counting past skipped garbage: count-based assignment *)
  let r3 = L.append ~dir (mk_run ~label:"third" ()) in
  Alcotest.(check string) "next id after garbage" "r3" r3.L.id

(* --- Ledger ids ---------------------------------------------------------- *)

(* [Ledger.append] reads each line's id off its fixed prefix instead of
   parsing the ledger. The reference is the parse-everything rule it
   replaced: one past the highest numeric id [load] returns. *)

let id_number id =
  if String.length id > 1 && id.[0] = 'r' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

let oracle_next_id ~dir =
  1
  + List.fold_left
      (fun acc r ->
        match id_number r.L.id with Some n -> max acc n | None -> acc)
      0 (L.load ~dir)

(* Variant [v] of the grid: equal variants share a (fingerprint, digest)
   pair, so [gc] and [merge] have duplicates to drop. *)
let variant_run v =
  mk_run ~label:(Printf.sprintf "v%d" v)
    ~cells:
      (Array.map (fun c -> { c with L.ipc = c.L.ipc +. float_of_int v }) grid_cells)
    ()

type ledger_op =
  | Append of int
  | Gc
  | Merge of int list
  | Garbage of string
  | Foreign of int
  | Shrink of int

let show_ledger_op = function
  | Append v -> Printf.sprintf "append v%d" v
  | Gc -> "gc"
  | Merge vs ->
    Printf.sprintf "merge [%s]" (String.concat ";" (List.map string_of_int vs))
  | Garbage g -> Printf.sprintf "garbage %S" g
  | Foreign k -> Printf.sprintf "foreign +%d" k
  | Shrink k -> Printf.sprintf "shrink -%d lines, append" k

let ledger_ops =
  QCheck.make
    ~print:(fun ops -> String.concat ", " (List.map show_ledger_op ops))
    QCheck.Gen.(
      list_size (1 -- 12)
        (frequency
           [
             (5, map (fun v -> Append v) (int_bound 3));
             (1, return Gc);
             (1, map (fun vs -> Merge vs) (list_size (0 -- 3) (int_bound 5)));
             ( 2,
               map
                 (fun g -> Garbage g)
                 (oneofl
                    [ "{not json"; "[1,2,3]"; ""; "   "; {|{"schema":1}|} ]) );
             (1, map (fun k -> Foreign k) (0 -- 3));
             (1, map (fun k -> Shrink k) (1 -- 2));
           ]))

(* The length of [text] without its last [k] newline-terminated lines. *)
let without_last_lines text k =
  let ends =
    List.filter (fun i -> text.[i] = '\n') (List.init (String.length text) Fun.id)
  in
  let keep = List.length ends - k in
  if keep <= 0 then 0 else List.nth ends (keep - 1) + 1

(* Run an op sequence against one of two writers: a fresh one per
   append ([Ledger.append]), or one [Ledger.Writer.t] held open across
   the whole sequence while gc renames the file, merge and hand edits
   append to it behind its back, and truncation shrinks it. Every
   append must return exactly the oracle's id and leave the file as its
   previous bytes, a fence if they lacked a final newline, and the new
   line. A shrink is followed by an append, so the writer sees it
   before anything can regrow the file to its old size. *)
let ledger_ops_property ~held ~name =
  QCheck.Test.make ~count:100 ~name ledger_ops (fun ops ->
      let root = tmp_dir () in
      let dir = Filename.concat root "runs" in
      let path = L.ledger_path ~dir in
      let writer = if held then Some (L.Writer.open_ ~dir) else None in
      let append_checked v =
        let before = if Sys.file_exists path then read_file path else "" in
        let expected = oracle_next_id ~dir in
        let r =
          match writer with
          | Some w -> L.Writer.append w (variant_run v)
          | None -> L.append ~dir (variant_run v)
        in
        let fence =
          if before = "" || String.ends_with ~suffix:"\n" before then ""
          else "\n"
        in
        r.L.id = Printf.sprintf "r%d" expected
        && read_file path = before ^ fence ^ J.to_string (L.to_json r) ^ "\n"
      in
      let step i = function
        | Append v -> append_checked v
        | Gc ->
          ignore (L.gc ~dir ());
          true
        | Merge vs ->
          let src = Filename.concat root (Printf.sprintf "src%d" i) in
          List.iter (fun v -> ignore (L.append ~dir:src (variant_run v))) vs;
          let expected = oracle_next_id ~dir in
          let report = L.merge ~dir ~from:[ src ] () in
          List.mapi (fun k r -> (k, r.L.id)) report.L.added
          |> List.for_all (fun (k, id) ->
                 id = Printf.sprintf "r%d" (expected + k))
        | Garbage g ->
          append_raw ~dir [ g ];
          true
        | Foreign k ->
          (* a valid record whose line lacks the id prefix (as after a
             hand edit), carrying an id [k] past the current maximum:
             only the per-line fallback parse can see it *)
          let id = Printf.sprintf "r%d" (oracle_next_id ~dir + k) in
          append_raw ~dir
            [ " " ^ J.to_string (L.to_json { (variant_run 9) with L.id }) ];
          true
        | Shrink k ->
          if Sys.file_exists path then
            Unix.truncate path (without_last_lines (read_file path) k);
          append_checked 0
      in
      let ok =
        Fun.protect
          ~finally:(fun () -> Option.iter L.Writer.close writer)
          (fun () -> List.for_all Fun.id (List.mapi step ops))
      in
      let ids = List.filter_map (fun r -> id_number r.L.id) (L.load ~dir) in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      ok && increasing ids)

let test_ledger_next_id_oracle =
  ledger_ops_property ~held:false
    ~name:"ledger: prefix-read next id = max+1 over append/gc/merge/garbage"

let test_ledger_held_writer_oracle =
  ledger_ops_property ~held:true
    ~name:"ledger: held writer next id = max+1 under gc/merge/edits/shrink"

(* Damage the file (byte edits, often inside a line's id prefix, and a
   truncation), then append: the new id may skip numbers but must be
   past every id [load] still returns, and the file must hold exactly
   the damaged text, a fence if it lacked a final newline, and the new
   line. *)
let test_ledger_next_id_corruption =
  let gen =
    QCheck.Gen.(
      triple (1 -- 4)
        (list_size (0 -- 4)
           (quad bool nat (0 -- 18)
              (frequency
                 [
                   (3, oneofl [ '0'; '7'; '9'; '"'; '\n'; 'r'; '{'; ' ' ]);
                   (1, char);
                 ])))
        (opt nat))
  in
  let print (n, edits, cut) =
    Printf.sprintf "%d records, edits [%s], cut %s" n
      (String.concat "; "
         (List.map
            (fun (near, a, b, c) -> Printf.sprintf "(%b,%d,%d,%C)" near a b c)
            edits))
      (match cut with Some c -> string_of_int c | None -> "none")
  in
  QCheck.Test.make ~count:200
    ~name:"ledger: next id never repeats a loadable id under corruption"
    (QCheck.make ~print gen) (fun (n, edits, cut) ->
      let dir = Filename.concat (tmp_dir ()) "runs" in
      for v = 1 to n do
        ignore (L.append ~dir (variant_run v))
      done;
      let path = L.ledger_path ~dir in
      let text = Bytes.of_string (read_file path) in
      let len = Bytes.length text in
      let line_starts =
        0
        :: List.filter_map
             (fun i -> if Bytes.get text i = '\n' then Some (i + 1) else None)
             (List.init len Fun.id)
      in
      List.iter
        (fun (near_prefix, a, b, c) ->
          let pos =
            if near_prefix then
              List.nth line_starts (a mod List.length line_starts) + b
            else a
          in
          Bytes.set text (pos mod len) c)
        edits;
      let damaged = Bytes.to_string text in
      let damaged =
        match cut with
        | Some c -> String.sub damaged 0 (c mod (len + 1))
        | None -> damaged
      in
      A.write_file ~path damaged;
      let floor = oracle_next_id ~dir in
      let r = L.append ~dir (variant_run 0) in
      let fence =
        if damaged = "" || String.ends_with ~suffix:"\n" damaged then ""
        else "\n"
      in
      (match id_number r.L.id with Some k -> k >= floor | None -> false)
      && read_file path
         = damaged ^ fence ^ J.to_string (L.to_json r) ^ "\n"
      && List.length (List.filter (fun x -> x.L.id = r.L.id) (L.load ~dir))
         = 1)

(* --- Ledger.load robustness ------------------------------------------------ *)

(* One record's line, with a generated label and IPC bit image. *)
let ledger_line_gen =
  QCheck.Gen.(
    map2
      (fun label bits ->
        let cells =
          Array.map (fun c -> { c with L.ipc = Int64.float_of_bits bits }) grid_cells
        in
        J.to_string (L.to_json { (mk_run ~cells ~label ()) with L.id = "r7" }))
      (string_size ~gen:json_byte (0 -- 8))
      ui64)

let load_ledger_text =
  let dir = lazy (tmp_dir ()) in
  fun text ->
    let dir = Lazy.force dir in
    A.write_file ~path:(L.ledger_path ~dir) text;
    L.load ~dir

(* A ledger holding one damaged record loads nothing from it: mutated
   bytes may still parse, a cut-short or random line never does, and
   none of them raises. *)
let ledger_load_robustness =
  Tgen.decoder_robustness ~name:"ledger: load"
    ~decode:(fun text ->
      match load_ledger_text text with [] -> Error () | runs -> Ok runs)
    ledger_line_gen

(* Damaged lines among intact ones are skipped: every intact record
   loads back, in file order, byte-identical when serialized again. *)
let test_ledger_load_skips_damage =
  let entry =
    QCheck.Gen.(
      ledger_line_gen >>= fun line ->
      frequency
        [
          (2, return (line, true));
          ( 1,
            map
              (fun bad -> (bad, false))
              (oneof
                 [ Tgen.mutated (return line); Tgen.truncated (return line); Tgen.random_bytes ])
          );
        ])
  in
  QCheck.Test.make ~count:200 ~name:"ledger: load skips damaged lines"
    (QCheck.make
       ~print:(fun es -> String.concat "\n" (List.map fst es))
       QCheck.Gen.(list_size (1 -- 6) entry))
    (fun entries ->
      let text = String.concat "\n" (List.map fst entries) in
      match load_ledger_text text with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | runs ->
        let loaded = List.map (fun r -> J.to_string (L.to_json r)) runs in
        let rec subsequence wanted have =
          match (wanted, have) with
          | [], _ -> true
          | _, [] -> false
          | w :: ws, h :: hs -> if w = h then subsequence ws hs else subsequence wanted hs
        in
        subsequence
          (List.filter_map (fun (line, intact) -> if intact then Some line else None) entries)
          loaded)

(* A crash mid-append leaves the start of a record with no newline. *)
let test_ledger_torn_tail () =
  let dir = Filename.concat (tmp_dir ()) "runs" in
  let path = L.ledger_path ~dir in
  let w = L.Writer.open_ ~dir in
  ignore (L.Writer.append w (variant_run 1));
  let line = J.to_string (L.to_json { (variant_run 2) with L.id = "r7" }) in
  let torn = String.sub line 0 (String.length line / 2) in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc torn);
  let before = read_file path in
  Alcotest.(check (list string)) "load skips the torn line" [ "r1" ]
    (List.map (fun r -> r.L.id) (L.load ~dir));
  let r = L.Writer.append w (variant_run 3) in
  Alcotest.(check string) "torn line's prefix id is not reissued" "r8" r.L.id;
  Alcotest.(check string) "the append fences the torn line"
    (before ^ "\n" ^ J.to_string (L.to_json r) ^ "\n")
    (read_file path);
  L.Writer.close w;
  Alcotest.(check (list string)) "the fenced ledger loads" [ "r1"; "r8" ]
    (List.map (fun r -> r.L.id) (L.load ~dir));
  Alcotest.(check string) "a fresh writer agrees" "r9"
    (L.append ~dir (variant_run 4)).L.id

(* Two processes append [n] records each to one ledger at the same
   time, once through [Ledger.append] and once through held writers,
   while this process keeps appending a duplicate record and running
   gc, which drops the older duplicate by renaming a compacted file over
   the ledger. Every appended record must survive, under its own id. *)
let test_ledger_concurrent_appenders () =
  let n = 100 in
  List.iter
    (fun mode ->
      let dir = Filename.concat (tmp_dir ()) "runs" in
      Sys.mkdir dir 0o755;
      let spawn label =
        Unix.create_process "./ledger_appender.exe"
          [| "ledger_appender.exe"; dir; string_of_int n; label; mode |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      let rec churn = function
        | [] -> ()
        | pending ->
          ignore (L.append ~dir (mk_run ~label:"dup" ()));
          ignore (L.gc ~dir ());
          churn
            (List.filter
               (fun pid ->
                 match Unix.waitpid [ Unix.WNOHANG ] pid with
                 | 0, _ -> true
                 | _, Unix.WEXITED 0 -> false
                 | _ -> Alcotest.fail "appender process failed")
               pending)
      in
      churn [ spawn "a"; spawn "b" ];
      let runs = L.load ~dir in
      let appended = List.filter (fun r -> r.L.label <> "dup") runs in
      let distinct f rs = List.length (List.sort_uniq compare (List.map f rs)) in
      Alcotest.(check int) (mode ^ ": every record loads") (2 * n)
        (List.length appended);
      Alcotest.(check int) (mode ^ ": every record is distinct") (2 * n)
        (distinct (fun r -> r.L.label) appended);
      Alcotest.(check int) (mode ^ ": ids are unique") (List.length runs)
        (distinct (fun r -> r.L.id) runs))
    [ "oneshot"; "held" ]

let test_ledger_diff () =
  let ra = mk_run ~label:"a" () in
  let rb = mk_run ~label:"b" () in
  (match L.diff ra rb with
  | L.Identical -> ()
  | _ -> Alcotest.fail "equal grids must diff Identical");
  Alcotest.(check string) "equal grids share a digest"
    (L.grid_digest ra.L.cells) (L.grid_digest rb.L.cells);
  (* perturb two cells: attribution names the first in mix-major order *)
  let perturbed = Array.map (fun c -> c) grid_cells in
  perturbed.(2) <- { perturbed.(2) with L.ipc = 1.5000001 };
  perturbed.(3) <- { perturbed.(3) with L.ipc = 2.5 };
  let rc = mk_run ~cells:perturbed ~label:"c" () in
  (match L.diff ra rc with
  | L.Drift { mix; scheme; ipc_a; ipc_b; differing } ->
    Alcotest.(check string) "first drifting mix" "MMMM" mix;
    Alcotest.(check string) "first drifting scheme" "1S" scheme;
    Alcotest.(check (float 0.0)) "lhs ipc" 1.5 ipc_a;
    Alcotest.(check (float 0.0)) "rhs ipc" 1.5000001 ipc_b;
    Alcotest.(check int) "differing cell count" 2 differing
  | _ -> Alcotest.fail "perturbed grid must drift");
  Alcotest.(check bool) "perturbed digest differs" true
    (L.grid_digest ra.L.cells <> L.grid_digest perturbed);
  (* a degraded (nan) cell in the same place on both sides is identical:
     the diff compares bit images, not float equality *)
  let nan_cells () =
    [| mk_cell ~degraded:true ~worker:0 "LLHH" "1S" Float.nan |]
  in
  (match
     L.diff
       (mk_run ~cells:(nan_cells ()) ~label:"n1" ())
       (mk_run ~cells:(nan_cells ()) ~label:"n2" ())
   with
  | L.Identical -> ()
  | _ -> Alcotest.fail "matching nan cells must diff Identical");
  match L.diff ra (mk_run ~cells:(nan_cells ()) ~label:"short" ()) with
  | L.Shape_mismatch _ -> ()
  | _ -> Alcotest.fail "different cell counts must be a shape mismatch"

(* --- OpenMetrics ------------------------------------------------------ *)

let test_openmetrics_render_and_lint () =
  Alcotest.(check string) "sanitize maps dots" "vliwsim_waste_vertical_empty"
    (T.Openmetrics.sanitize "waste.vertical.empty");
  Alcotest.(check string) "label escaping" "a\\\"b\\\\c\\nd"
    (T.Openmetrics.escape_label_value "a\"b\\c\nd");
  let reg = T.Counters.create () in
  T.Counters.add (T.Counters.counter reg "slots.filled") 1264;
  T.Counters.add (T.Counters.counter reg "core.cycles") 400;
  let h = T.Counters.histogram reg "cell.elapsed" ~bounds:[| 0.1; 1.0 |] in
  List.iter (T.Counters.observe h) [ 0.05; 0.5; 2.0 ];
  let text =
    T.Openmetrics.render
      ~labels:[ ("scale", "quick"); ("odd", "with \"quotes\"") ]
      ~snapshot:(T.Counters.snapshot reg)
      ~gauges:[ ("run_ipc_mean", 1.44) ]
      ()
  in
  Alcotest.(check (list string)) "render lints clean" []
    (T.Openmetrics.lint text);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle text))
    [
      "# HELP vliwsim_slots_filled_total";
      "# TYPE vliwsim_slots_filled_total counter";
      "vliwsim_slots_filled_total{scale=\"quick\"";
      "# TYPE vliwsim_cell_elapsed histogram";
      "vliwsim_cell_elapsed_bucket{";
      "le=\"+Inf\"";
      "vliwsim_cell_elapsed_sum";
      "vliwsim_cell_elapsed_count";
      "# TYPE vliwsim_run_ipc_mean gauge";
      "\\\"quotes\\\"";
      "# EOF";
    ]

let test_openmetrics_of_run () =
  let dir = Filename.concat (tmp_dir ()) "runs" in
  let r = L.append ~dir (mk_run ~label:"fig10" ()) in
  let text = T.Openmetrics.of_run r in
  Alcotest.(check (list string)) "of_run lints clean" []
    (T.Openmetrics.lint text);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle text))
    [
      "run=\"r1\"";
      "cmd=\"exp\"";
      "vliwsim_core_cycles_total";
      "vliwsim_run_wall_seconds";
      "vliwsim_run_cells";
      "vliwsim_run_ipc_mean";
    ]

let test_openmetrics_lint_catches () =
  let violating =
    [
      ("sample without TYPE", "foo_total 1\n# EOF\n");
      ("counter without _total",
       "# HELP m help\n# TYPE m counter\nm 1\n# EOF\n");
      ("missing terminator", "# HELP m help\n# TYPE m gauge\nm 1\n");
      ("content after EOF", "# EOF\nstray 1\n");
      ("duplicate TYPE",
       "# TYPE m gauge\n# TYPE m gauge\nm 1\n# EOF\n");
      ("TYPE after samples",
       "# TYPE m gauge\nm 1\n# HELP m late\n# EOF\n");
      ("unparseable value", "# TYPE m gauge\nm potato\n# EOF\n");
      ("unterminated label block", "# TYPE m gauge\nm{a=\"b 1\n# EOF\n");
      ("invalid metric name", "# TYPE 9bad gauge\n# EOF\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      Alcotest.(check bool) (name ^ " flagged") true
        (T.Openmetrics.lint text <> []))
    violating

(* --- HTML report ------------------------------------------------------ *)

let test_html_report_self_contained () =
  let dir = Filename.concat (tmp_dir ()) "runs" in
  let _r1 = L.append ~dir (mk_run ~label:"fig10" ()) in
  let r2 = L.append ~dir (mk_run ~label:"fig10" ()) in
  let html = T.Html_report.render ~runs:(L.load ~dir) r2 in
  (* single-file contract: no scripts, no external references *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("absent: " ^ needle) false (contains ~needle html))
    [ "<script"; "http://"; "https://"; "src="; "href=" ];
  (* every section has data in mk_run, so every section renders *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("present: " ^ needle) true (contains ~needle html))
    [
      "<svg";
      "</html>";
      "prefers-color-scheme";
      "<title>";
      "IPC by workload mix and merge scheme";
      "Issue-slot waste breakdown";
      "Stall &amp; event attribution";
      "Sweep cell timeline";
      "Cross-run trajectory";
    ];
  (* with two same-fingerprint runs the trajectory is a chart, not the
     single-run hero number *)
  Alcotest.(check bool) "trajectory names both runs" true
    (contains ~needle:"r1" html && contains ~needle:"r2" html);
  (* a run with no counters and a single record: sections degrade by
     omission, the document still closes *)
  let bare =
    L.make ~cmd:"run" ~label:"solo" ~scale:"quick" ~seed:1L ~jobs:1
      ~scheme_names:[ "2SC3" ] ~mix_names:[ "LLHH" ] ~wall_s:0.1 ()
  in
  let html2 = T.Html_report.render ~runs:[ bare ] bare in
  Alcotest.(check bool) "bare run renders" true (contains ~needle:"</html>" html2);
  Alcotest.(check bool) "bare run omits timeline" false
    (contains ~needle:"Sweep cell timeline" html2);
  (* span.* gauges light the Request latency panel *)
  Alcotest.(check bool) "untraced run omits latency panel" false
    (contains ~needle:"Request latency" html);
  let traced =
    L.make ~cells:grid_cells
      ~gauges:
        [
          ("span.submit.count", 2.0); ("span.submit.p50", 0.012);
          ("span.submit.p95", 0.04); ("span.submit.p99", 0.04);
          ("span.simulate_cell.count", 4.0); ("span.simulate_cell.p50", 0.003);
        ]
      ~cmd:"serve" ~label:"traced" ~scale:"quick" ~seed:1L ~jobs:1
      ~scheme_names:[ "1S"; "2SC3" ] ~mix_names:[ "LLHH"; "MMMM" ] ~wall_s:0.1
      ()
  in
  let html3 = T.Html_report.render traced in
  Alcotest.(check bool) "latency panel renders" true
    (contains ~needle:"Request latency" html3);
  Alcotest.(check bool) "quantile bars present" true
    (contains ~needle:"submit p95" html3);
  (* gauge-only (cell-less) records still get a trajectory: the headline
     gauge plays the role mean IPC plays for grids *)
  let bench label =
    L.make ~gauges:[ ("exp_all_calibrated", 12.5); ("words_per_cycle.C4", 3.0) ]
      ~cmd:"bench" ~label ~scale:"quick" ~seed:1L ~jobs:1 ~scheme_names:[ "C4" ]
      ~mix_names:[] ~wall_s:0.1 ()
  in
  let bdir = Filename.concat (tmp_dir ()) "bruns" in
  let _b1 = L.append ~dir:bdir (bench "b1") in
  let b2 = L.append ~dir:bdir (bench "b2") in
  let html4 = T.Html_report.render ~runs:(L.load ~dir:bdir) b2 in
  Alcotest.(check bool) "gauge-only trajectory renders" true
    (contains ~needle:"Cross-run trajectory" html4);
  Alcotest.(check bool) "trajectory charts the headline gauge" true
    (contains ~needle:"exp_all_calibrated across" html4)

(* --- Sweep events ----------------------------------------------------- *)

let collect_events ~jobs ?telemetry () =
  let m = Mutex.create () in
  let events = ref [] in
  let on_event ev =
    Mutex.lock m;
    events := ev :: !events;
    Mutex.unlock m
  in
  let names_and_cells =
    E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names:[ "1S"; "2SC3" ]
      ~mix_names:[ "LLHH" ] ~jobs ?telemetry ~on_event ()
  in
  (names_and_cells, List.rev !events)

let test_sweep_event_stream () =
  let (_, _, cells), events = collect_events ~jobs:2 () in
  Alcotest.(check int) "two cells simulated" 2 (Array.length cells);
  (match events with
  | E.Sweep.Sweep_started { total; jobs; scale; _ } :: _ ->
    Alcotest.(check int) "started total" 2 total;
    Alcotest.(check int) "started jobs" 2 jobs;
    Alcotest.(check string) "started scale" "quick" scale
  | _ -> Alcotest.fail "first event must be Sweep_started");
  (match List.rev events with
  | E.Sweep.Sweep_finished { total; degraded; wall_s } :: _ ->
    Alcotest.(check int) "finished total" 2 total;
    Alcotest.(check int) "finished degraded" 0 degraded;
    Alcotest.(check bool) "wall clock sane" true (wall_s >= 0.0)
  | _ -> Alcotest.fail "last event must be Sweep_finished");
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "one Cell_started per cell" 2
    (count (function E.Sweep.Cell_started _ -> true | _ -> false));
  Alcotest.(check int) "one Cell_finished per cell" 2
    (count (function E.Sweep.Cell_finished _ -> true | _ -> false));
  let finished =
    List.filter_map
      (function
        | E.Sweep.Cell_finished { completed; total; eta_s; _ } ->
          Some (completed, total, eta_s)
        | _ -> None)
      events
  in
  Alcotest.(check (list int)) "completed counts monotone" [ 1; 2 ]
    (List.map (fun (c, _, _) -> c) finished);
  List.iter
    (fun (_, total, eta_s) ->
      Alcotest.(check int) "total stable" 2 total;
      Alcotest.(check bool) "eta calibrated and non-negative" true
        ((not (Float.is_nan eta_s)) && eta_s >= 0.0))
    finished;
  (* every event serializes to one parseable JSON object *)
  List.iter
    (fun ev ->
      let line = J.to_string (E.Sweep.json_of_event ev) in
      match J.parse line with
      | Ok doc ->
        Alcotest.(check bool) "event has an ev tag" true
          (Option.bind (J.member "ev" doc) J.to_string_opt <> None);
        Alcotest.(check bool) "event has a timestamp" true
          (Option.bind (J.member "ts" doc) J.to_float <> None)
      | Error e -> Alcotest.fail ("event JSON unparseable: " ^ e))
    events

let test_sweep_retry_events () =
  let attempts = Atomic.make 0 in
  E.Sweep.inject_failure :=
    Some
      (fun ~row:_ ~col:_ ->
        (* first attempt of the single cell fails, the retry succeeds *)
        Atomic.fetch_and_add attempts 1 = 0);
  Fun.protect
    ~finally:(fun () -> E.Sweep.inject_failure := None)
    (fun () ->
      let m = Mutex.create () in
      let events = ref [] in
      let on_event ev =
        Mutex.lock m;
        events := ev :: !events;
        Mutex.unlock m
      in
      let _, _, cells =
        E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names:[ "1S" ]
          ~mix_names:[ "LLHH" ] ~jobs:1 ~max_retries:1 ~on_event ()
      in
      Alcotest.(check int) "cell took two attempts" 2 cells.(0).E.Sweep.attempts;
      let events = List.rev !events in
      (match
         List.find_opt
           (function E.Sweep.Cell_retried _ -> true | _ -> false)
           events
       with
      | Some (E.Sweep.Cell_retried { mix; scheme; attempt; error }) ->
        Alcotest.(check string) "retried mix" "LLHH" mix;
        Alcotest.(check string) "retried scheme" "1S" scheme;
        Alcotest.(check int) "failed attempt number" 1 attempt;
        Alcotest.(check bool) "error text carried" true (error <> "")
      | _ -> Alcotest.fail "expected a Cell_retried event");
      Alcotest.(check int) "no Cell_degraded after recovery" 0
        (List.length
           (List.filter
              (function E.Sweep.Cell_degraded _ -> true | _ -> false)
              events)))

let test_json_logger_ndjson () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "events.ndjson" in
  let oc = open_out path in
  let logger = E.Sweep.json_logger oc in
  let _, _, cells =
    E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names:[ "1S"; "2SC3" ]
      ~mix_names:[ "LLHH" ] ~jobs:2 ~on_event:logger ()
  in
  close_out oc;
  Alcotest.(check int) "cells" 2 (Array.length cells);
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))
  in
  (* sweep_started + 2 x (cell_started + cell_finished) + sweep_finished *)
  Alcotest.(check int) "one line per event" 6 (List.length lines);
  let tags =
    List.map
      (fun line ->
        match J.parse line with
        | Ok doc ->
          Option.value ~default:"?"
            (Option.bind (J.member "ev" doc) J.to_string_opt)
        | Error e -> Alcotest.fail ("NDJSON line unparseable: " ^ e))
      lines
  in
  Alcotest.(check string) "stream opens with sweep_started" "sweep_started"
    (List.hd tags);
  Alcotest.(check string) "stream closes with sweep_finished" "sweep_finished"
    (List.nth tags 5);
  List.iter
    (fun tag ->
      Alcotest.(check bool) ("known tag " ^ tag) true
        (List.mem tag
           [ "sweep_started"; "cell_started"; "cell_finished"; "sweep_finished" ]))
    tags

(* --- The acceptance property ----------------------------------------- *)

let scheme_subsets = [| [ "1S"; "3CCC" ]; [ "2SC3" ]; [ "3SSS"; "2SC3" ] |]
let mix_subsets = [| [ "LLHH" ]; [ "LLLL"; "HHHH" ]; [ "MMMM" ] |]

let cell_bits cells =
  Array.to_list
    (Array.map (fun (c : E.Sweep.cell) -> Int64.bits_of_float c.ipc) cells)

let ledger_cells cells =
  Array.map
    (fun (c : E.Sweep.cell) ->
      {
        L.mix = c.mix;
        scheme = c.scheme;
        ipc = c.ipc;
        elapsed_s = c.elapsed_s;
        started_s = c.started_s;
        worker = c.worker;
        attempts = c.attempts;
        degraded = c.error <> None;
      })
    cells

(* --- Structured logging ---------------------------------------------- *)

module Log = Vliw_util.Log

let test_log_render () =
  let sink = Buffer.create 256 in
  let t = ref 0.0 in
  let clock () =
    t := !t +. 1.5;
    !t
  in
  let log =
    Log.make ~level:Log.Debug ~format:Log.Human ~clock ~component:"serve"
      (fun line ->
        Buffer.add_string sink line;
        Buffer.add_char sink '\n')
  in
  let fields =
    [ ("job", Log.S "j-1"); ("cells", Log.I 9); ("wall_s", Log.F 0.25);
      ("cached", Log.B true); ("msg text", Log.S "two words") ]
  in
  let human = Log.render log ~ts:12.5 Log.Warn "job done" fields in
  Alcotest.(check bool) "level tag" true (contains ~needle:"warn" human);
  Alcotest.(check bool) "component tag" true (contains ~needle:"serve:" human);
  Alcotest.(check bool) "bare id unquoted" true (contains ~needle:"job=j-1" human);
  Alcotest.(check bool) "int field" true (contains ~needle:"cells=9" human);
  Alcotest.(check bool) "spacey value quoted" true
    (contains ~needle:"=\"two words\"" human);
  (* json mode: every line parses, fields are typed *)
  let jlog = Log.make ~format:Log.Json ~clock ~component:"dist" (fun l ->
      Buffer.add_string sink l) in
  Buffer.clear sink;
  Log.info jlog "worker up" [ ("worker", Log.I 3); ("addr", Log.S "w:1") ];
  (match J.parse (Buffer.contents sink) with
  | Error e -> Alcotest.fail ("json log line not JSON: " ^ e)
  | Ok doc ->
    Alcotest.(check bool) "level field" true
      (J.member "level" doc = Some (J.Str "info"));
    Alcotest.(check bool) "component field" true
      (J.member "component" doc = Some (J.Str "dist"));
    Alcotest.(check bool) "typed int field" true
      (J.member "worker" doc = Some (J.Num 3.0));
    (match J.member "ts" doc with
    | Some (J.Num ts) ->
      (* monotonic: seconds since logger creation, not wall time *)
      Alcotest.(check bool) "ts is an offset" true (ts >= 0.0 && ts < 60.0)
    | _ -> Alcotest.fail "no ts field"))

let test_log_levels () =
  let lines = ref [] in
  let log =
    Log.make ~level:Log.Warn ~component:"c" (fun l -> lines := l :: !lines)
  in
  Log.debug log "dropped" [];
  Log.info log "dropped" [];
  Log.warn log "kept" [];
  Log.error log "kept" [];
  Alcotest.(check int) "below-threshold records dropped" 2
    (List.length !lines);
  Alcotest.(check bool) "enabled matches" true
    (Log.enabled log Log.Error && not (Log.enabled log Log.Info));
  (* parsing the CLI spellings *)
  Alcotest.(check bool) "warning alias" true
    (Log.level_of_string "WARNING" = Ok Log.Warn);
  Alcotest.(check bool) "bad level rejected" true
    (match Log.level_of_string "loud" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "ndjson alias" true
    (Log.format_of_string "ndjson" = Ok Log.Json);
  (* with_component keeps the sink and threshold *)
  let sub = Log.with_component log "c/sub" in
  Log.error sub "tagged" [];
  match !lines with
  | latest :: _ ->
    Alcotest.(check bool) "recomponented" true (contains ~needle:"c/sub" latest)
  | [] -> Alcotest.fail "no line emitted"

(* The full observability stack — NDJSON event log, per-cell telemetry,
   ledger append + reload, OpenMetrics render + lint — around a sweep,
   returning the IPC bit images as simulated and as persisted. *)
let observed_sweep ~seed ~scheme_names ~mix_names ~jobs =
  let dir = tmp_dir () in
  let oc = open_out (Filename.concat dir "events.ndjson") in
  let logger = E.Sweep.json_logger oc in
  let resolved_schemes, resolved_mixes, cells =
    E.Sweep.run_cells ~scale:E.Common.Quick ~seed ~scheme_names ~mix_names
      ~jobs ~telemetry:true ~on_event:logger ()
  in
  close_out oc;
  let snap = E.Sweep.merged_telemetry cells in
  let run =
    L.append ~dir:(Filename.concat dir "runs")
      (L.make
         ~counters:snap.T.Counters.counters
         ~cells:(ledger_cells cells) ~cmd:"exp" ~label:"property"
         ~scale:"quick" ~seed ~jobs ~scheme_names:resolved_schemes
         ~mix_names:resolved_mixes ~wall_s:0.0 ())
  in
  if T.Openmetrics.lint (T.Openmetrics.of_run run) <> [] then
    failwith "observed sweep produced an invalid exposition";
  let reloaded =
    match L.find ~dir:(Filename.concat dir "runs") "latest" with
    | Some r -> r
    | None -> failwith "ledger lost the run"
  in
  let persisted_bits =
    Array.to_list
      (Array.map
         (fun (c : L.cell) -> Int64.bits_of_float c.ipc)
         reloaded.L.cells)
  in
  (cell_bits cells, persisted_bits)

let test_observability_inert =
  QCheck.Test.make ~count:3
    ~name:
      "ledger + metrics + event log leave the grid bit-identical (jobs 1 and 4)"
    QCheck.(triple (int_bound 1000) (int_bound 2) (int_bound 2))
    (fun (seed, si, mi) ->
      let seed = Int64.of_int seed in
      let scheme_names = scheme_subsets.(si)
      and mix_names = mix_subsets.(mi) in
      let _, _, reference_cells =
        E.Sweep.run_cells ~scale:E.Common.Quick ~seed ~scheme_names ~mix_names
          ~jobs:1 ()
      in
      let reference = cell_bits reference_cells in
      List.for_all
        (fun jobs ->
          let simulated, persisted =
            observed_sweep ~seed ~scheme_names ~mix_names ~jobs
          in
          simulated = reference && persisted = reference)
        [ 1; 4 ])

let suite =
  ( "observability",
    [
      Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
      QCheck_alcotest.to_alcotest test_json_float_bits;
      QCheck_alcotest.to_alcotest test_json_oracle_serialized;
      QCheck_alcotest.to_alcotest test_json_oracle_mutated;
      QCheck_alcotest.to_alcotest test_json_oracle_bytes;
      Alcotest.test_case "json: writer = oracle on edge values" `Quick
        test_json_writer_edges;
      QCheck_alcotest.to_alcotest test_json_writer_floats;
      QCheck_alcotest.to_alcotest test_json_writer_strings;
      QCheck_alcotest.to_alcotest test_json_writer_values;
      Alcotest.test_case "atomic file writes" `Quick test_atomic_io;
      Alcotest.test_case "ledger writer line discipline" `Quick
        test_ledger_writer_lines;
      Alcotest.test_case "ledger make + json" `Quick test_ledger_make_and_json;
      Alcotest.test_case "ledger store" `Quick test_ledger_store;
      QCheck_alcotest.to_alcotest test_ledger_next_id_oracle;
      QCheck_alcotest.to_alcotest test_ledger_held_writer_oracle;
      QCheck_alcotest.to_alcotest test_ledger_next_id_corruption;
      QCheck_alcotest.to_alcotest test_ledger_load_skips_damage;
    ]
    @ List.map QCheck_alcotest.to_alcotest ledger_load_robustness
    @ [
      Alcotest.test_case "ledger torn tail" `Quick test_ledger_torn_tail;
      Alcotest.test_case "ledger concurrent appenders" `Quick
        test_ledger_concurrent_appenders;
      Alcotest.test_case "ledger diff attribution" `Quick test_ledger_diff;
      Alcotest.test_case "openmetrics render lints clean" `Quick
        test_openmetrics_render_and_lint;
      Alcotest.test_case "openmetrics of_run" `Quick test_openmetrics_of_run;
      Alcotest.test_case "openmetrics lint catches violations" `Quick
        test_openmetrics_lint_catches;
      Alcotest.test_case "html report self-contained" `Quick
        test_html_report_self_contained;
      Alcotest.test_case "sweep event stream" `Quick test_sweep_event_stream;
      Alcotest.test_case "sweep retry events" `Quick test_sweep_retry_events;
      Alcotest.test_case "json logger writes NDJSON" `Quick
        test_json_logger_ndjson;
      Alcotest.test_case "structured log rendering" `Quick test_log_render;
      Alcotest.test_case "log levels and parsing" `Quick test_log_levels;
      QCheck_alcotest.to_alcotest test_observability_inert;
    ] )
