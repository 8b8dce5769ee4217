(* NDJSON framing: incremental line assembly plus per-line parsing.

   The reader is a plain byte accumulator with two twists:

   - The byte budget is enforced while buffering, not after: an
     attacker-sized line costs at most [max_line_bytes] of memory, the
     overflow is discarded as it streams past, and exactly one
     [Oversized] error is reported when the terminator finally shows up
     (so the reply stream stays one-reply-per-line).

   - Errors are values, not exceptions: the transport loop forwards
     them to the peer as error replies and keeps the connection. *)

type error =
  | Oversized of { limit : int }
  | Malformed of { msg : string }
  | Truncated

let error_message = function
  | Oversized { limit } ->
    Printf.sprintf "line exceeds the %d-byte limit" limit
  | Malformed { msg } -> "malformed JSON line: " ^ msg
  | Truncated -> "truncated line (stream ended before the newline)"

type reader = {
  buf : Buffer.t;
  max_line_bytes : int;
  mutable poisoned : bool;  (* current line already over budget *)
}

let reader ?(max_line_bytes = 1 lsl 20) () =
  if max_line_bytes <= 0 then invalid_arg "Ndjson.reader: max_line_bytes <= 0";
  { buf = Buffer.create 256; max_line_bytes; poisoned = false }

(* One completed line: classify and reset for the next one. A carriage
   return before the terminator is tolerated (telnet-style peers). *)
let complete r =
  let raw = Buffer.contents r.buf in
  Buffer.clear r.buf;
  let poisoned = r.poisoned in
  r.poisoned <- false;
  if poisoned then Some (Error (Oversized { limit = r.max_line_bytes }))
  else begin
    let line =
      if String.length raw > 0 && raw.[String.length raw - 1] = '\r' then
        String.sub raw 0 (String.length raw - 1)
      else raw
    in
    if String.trim line = "" then None
    else
      match Json.parse line with
      | Ok doc -> Some (Ok doc)
      | Error msg -> Some (Error (Malformed { msg }))
  end

let feed r ?(off = 0) ?len chunk =
  let len = match len with Some n -> n | None -> String.length chunk - off in
  if off < 0 || len < 0 || off + len > String.length chunk then
    invalid_arg "Ndjson.feed: bad substring";
  let out = ref [] in
  for i = off to off + len - 1 do
    match chunk.[i] with
    | '\n' -> (
      match complete r with Some res -> out := res :: !out | None -> ())
    | c ->
      if Buffer.length r.buf >= r.max_line_bytes then r.poisoned <- true
      else Buffer.add_char r.buf c
  done;
  List.rev !out

let close r =
  if Buffer.length r.buf = 0 && not r.poisoned then None
  else begin
    Buffer.clear r.buf;
    r.poisoned <- false;
    Some (Error Truncated)
  end

let line doc =
  let buf = Buffer.create 256 in
  Json.write buf doc;
  Buffer.add_char buf '\n';
  Buffer.contents buf
