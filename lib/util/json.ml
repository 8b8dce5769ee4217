(* Minimal JSON: a value type, a compact serializer, and a recursive-
   descent parser. No external dependencies by design — the toolchain
   image carries no JSON library, and the consumers (the run ledger's
   JSONL lines, the sweep's NDJSON heartbeat) need only the data model,
   not streaming or schema support.

   Numbers are [float]s. Values that must survive bit-exactly (64-bit
   seeds, IEEE-754 IPC images) are therefore stored by their producers
   as hex strings, not numbers. The serializer prints a non-integral
   number as %.12g when that round-trips and as %.17g otherwise, which
   is not always the shortest decimal; those bytes are pinned. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- serialization --------------------------------------------------- *)

(* The writer appends straight into one [Buffer]: a string's runs of
   plain bytes go in as substrings (a string with nothing to escape is
   one scan and one blit), numbers skip [Printf]'s format interpreter,
   and lists and objects are walked by top-level recursion. Its bytes
   are pinned by differential tests against the reference serializer in
   test/json_oracle.ml. *)

let hex_digits = "0123456789abcdef"

(* Append [s.[start, length s)], escaped, where [s.[start, i)] is
   already known to need no escape. *)
let rec add_escaped_from buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
      Buffer.add_substring buf s start (i - start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]);
      add_escaped_from buf s (i + 1) (i + 1)
    | _ -> add_escaped_from buf s start (i + 1)

let add_escaped buf s =
  Buffer.add_char buf '"';
  add_escaped_from buf s 0 0;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* The C primitive behind [Printf]'s %g and [string_of_float]. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integral values under 1e15 print as integers ("-0" keeps its sign);
   any other value prints as %.12g when that parses back to the same
   bits, else as %.17g, which always does. JSON has no NaN/Infinity
   literals, so [write] turns those into null before calling this (the
   ledger never stores them as numbers — degraded cells carry their IPC
   as hex bits plus a flag). *)
let number_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    if v = 0.0 && Float.sign_bit v then "-0" else string_of_int (int_of_float v)
  else begin
    let short = format_float "%.12g" v in
    if float_of_string short = v then short else format_float "%.17g" v
  end

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
    if Float.is_finite v then Buffer.add_string buf (number_string v)
    else Buffer.add_string buf "null"
  | Str s -> add_escaped buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
    Buffer.add_char buf '[';
    write buf item;
    write_items buf items;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
    Buffer.add_char buf '{';
    write_field buf field;
    write_fields buf fields;
    Buffer.add_char buf '}'

and write_items buf = function
  | [] -> ()
  | item :: items ->
    Buffer.add_char buf ',';
    write buf item;
    write_items buf items

and write_field buf (k, v) =
  add_escaped buf k;
  Buffer.add_char buf ':';
  write buf v

and write_fields buf = function
  | [] -> ()
  | field :: fields ->
    Buffer.add_char buf ',';
    write_field buf field;
    write_fields buf fields

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* The cursor is read directly, [pos] checked against the text's length
   before each index: an [option]-returning peek would allocate a
   [Some] per byte without flambda. *)
type cursor = { text : string; mutable pos : int }

let advance c = c.pos <- c.pos + 1

let at_end c = c.pos >= String.length c.text

let rec skip_ws c =
  if not (at_end c) then
    match c.text.[c.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
      advance c;
      skip_ws c
    | _ -> ()

let expect c ch =
  if at_end c then fail "expected %C at offset %d, got end of input" ch c.pos
  else
    let got = c.text.[c.pos] in
    if got = ch then advance c
    else fail "expected %C at offset %d, got %C" ch c.pos got

(* Encode a Unicode scalar value as UTF-8 bytes (for \uXXXX escapes;
   surrogate pairs outside the BMP are not combined — the serializer
   never emits them). *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* First offset at or after [i] holding a quote or a backslash, or the
   text's length if there is none. *)
let rec plain_end text i =
  if i >= String.length text then i
  else match text.[i] with '"' | '\\' -> i | _ -> plain_end text (i + 1)

(* Escape-free literals (every ledger key and almost every value) are
   one [String.sub]; only a literal with a backslash goes through a
   buffer. *)
let parse_string c =
  expect c '"';
  let text = c.text in
  let start = c.pos in
  let stop = plain_end text start in
  if stop < String.length text && text.[stop] = '"' then begin
    c.pos <- stop + 1;
    String.sub text start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf text start (stop - start);
    c.pos <- stop;
    let rec go () =
      if at_end c then fail "unterminated string at offset %d" c.pos;
      match text.[c.pos] with
      | '"' -> advance c
      | '\\' ->
        advance c;
        if at_end c then fail "truncated escape at offset %d" c.pos;
        (match text.[c.pos] with
        | '"' -> Buffer.add_char buf '"'; advance c
        | '\\' -> Buffer.add_char buf '\\'; advance c
        | '/' -> Buffer.add_char buf '/'; advance c
        | 'n' -> Buffer.add_char buf '\n'; advance c
        | 'r' -> Buffer.add_char buf '\r'; advance c
        | 't' -> Buffer.add_char buf '\t'; advance c
        | 'b' -> Buffer.add_char buf '\b'; advance c
        | 'f' -> Buffer.add_char buf '\012'; advance c
        | 'u' ->
          advance c;
          if c.pos + 4 > String.length text then
            fail "truncated \\u escape at offset %d" c.pos;
          let hex = String.sub text c.pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code ->
            add_utf8 buf code;
            c.pos <- c.pos + 4
          | None -> fail "bad \\u escape %S at offset %d" hex c.pos)
        | other -> fail "bad escape \\%C at offset %d" other c.pos);
        go ()
      | _ ->
        let stop = plain_end text c.pos in
        Buffer.add_substring buf text c.pos (stop - c.pos);
        c.pos <- stop;
        go ()
    in
    go ();
    Buffer.contents buf
  end

let parse_literal c lit value =
  let n = String.length lit in
  let rec matches i = i = n || (c.text.[c.pos + i] = lit.[i] && matches (i + 1)) in
  if c.pos + n <= String.length c.text && matches 0 then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "bad literal at offset %d" c.pos

let number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number c =
  let start = c.pos in
  while (not (at_end c)) && number_char c.text.[c.pos] do
    advance c
  done;
  let image = String.sub c.text start (c.pos - start) in
  match float_of_string_opt image with
  | Some v -> Num v
  | None -> fail "bad number %S at offset %d" image start

(* True when the cursor sits on [ch]. *)
let at c ch = (not (at_end c)) && c.text.[c.pos] = ch

let rec parse_value c =
  skip_ws c;
  if at_end c then fail "unexpected end of input at offset %d" c.pos;
  match c.text.[c.pos] with
  | '"' -> Str (parse_string c)
  | '{' -> parse_obj c
  | '[' -> parse_list c
  | 't' -> parse_literal c "true" (Bool true)
  | 'f' -> parse_literal c "false" (Bool false)
  | 'n' -> parse_literal c "null" Null
  | ch when number_char ch -> parse_number c
  | ch -> fail "unexpected %C at offset %d" ch c.pos

and parse_obj c =
  expect c '{';
  skip_ws c;
  if at c '}' then begin
    advance c;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec go () =
      skip_ws c;
      let key = parse_string c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      fields := (key, v) :: !fields;
      skip_ws c;
      if at c ',' then begin
        advance c;
        go ()
      end
      else expect c '}'
    in
    go ();
    Obj (List.rev !fields)
  end

and parse_list c =
  expect c '[';
  skip_ws c;
  if at c ']' then begin
    advance c;
    List []
  end
  else begin
    let items = ref [] in
    let rec go () =
      let v = parse_value c in
      items := v :: !items;
      skip_ws c;
      if at c ',' then begin
        advance c;
        go ()
      end
      else expect c ']'
    in
    go ();
    List (List.rev !items)
  end

let parse text =
  let c = { text; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length text then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors -------------------------------------------------------- *)

(* [List.assoc_opt] with [String.equal] in place of the slower
   polymorphic compare: ledger decoding looks up every field by name. *)
let rec assoc_string key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc_string key rest

let member key = function Obj fields -> assoc_string key fields | _ -> None

let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List items -> Some items | _ -> None
