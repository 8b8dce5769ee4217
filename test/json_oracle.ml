(* Reference oracles for [Vliw_util.Json]. First, [parse]: the
   recursive-descent parser as it stood before the library's cursor was
   rewritten for speed (an [option]-returning [peek], a [Buffer] for
   every string literal). It is kept verbatim as the executable
   specification the differential property tests compare against —
   values, [Error] messages and offsets included. Do not optimise it.
   The serializer's oracle follows at the end of the file. *)

type t = Vliw_util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some got when got = ch -> advance c
  | Some got -> fail "expected %C at offset %d, got %C" ch c.pos got
  | None -> fail "expected %C at offset %d, got end of input" ch c.pos

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

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string at offset %d" c.pos
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; advance c
      | Some '\\' -> Buffer.add_char buf '\\'; advance c
      | Some '/' -> Buffer.add_char buf '/'; advance c
      | Some 'n' -> Buffer.add_char buf '\n'; advance c
      | Some 'r' -> Buffer.add_char buf '\r'; advance c
      | Some 't' -> Buffer.add_char buf '\t'; advance c
      | Some 'b' -> Buffer.add_char buf '\b'; advance c
      | Some 'f' -> Buffer.add_char buf '\012'; advance c
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.text then
          fail "truncated \\u escape at offset %d" c.pos;
        let hex = String.sub c.text c.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code ->
          add_utf8 buf code;
          c.pos <- c.pos + 4
        | None -> fail "bad \\u escape %S at offset %d" hex c.pos)
      | Some other -> fail "bad escape \\%C at offset %d" other c.pos
      | None -> fail "truncated escape at offset %d" c.pos);
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_literal c lit value =
  let n = String.length lit in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = lit then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "bad literal at offset %d" c.pos

let number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number c =
  let start = c.pos in
  while (match peek c with Some ch -> number_char ch | None -> false) do
    advance c
  done;
  let image = String.sub c.text start (c.pos - start) in
  match float_of_string_opt image with
  | Some v -> Num v
  | None -> fail "bad number %S at offset %d" image start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input at offset %d" c.pos
  | Some '"' -> Str (parse_string c)
  | Some '{' -> parse_obj c
  | Some '[' -> parse_list c
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ch when number_char ch -> parse_number c
  | Some ch -> fail "unexpected %C at offset %d" ch c.pos

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then begin
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
      match peek c with
      | Some ',' ->
        advance c;
        go ()
      | _ -> expect c '}'
    in
    go ();
    Obj (List.rev !fields)
  end

and parse_list c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then begin
    advance c;
    List []
  end
  else begin
    let items = ref [] in
    let rec go () =
      let v = parse_value c in
      items := v :: !items;
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        go ()
      | _ -> expect c ']'
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

(* --- serializer oracle ------------------------------------------------- *)

(* The serializer as it stood before the direct writer: a [Buffer] and
   a [Buffer.contents] copy per string, [Printf] for every number, and
   [List.iteri] closures. Kept verbatim as the executable specification
   of the bytes [Vliw_util.Json.to_string] emits — the ledger, the wire
   protocol and the OpenMetrics values all depend on them. Do not
   optimise it. *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let number_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else begin
    let short = Printf.sprintf "%.12g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v
  end

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
    if Float.is_nan v || Float.abs v = infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (number_string v)
  | Str s -> Buffer.add_string buf (escape_string s)
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (escape_string k);
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf
