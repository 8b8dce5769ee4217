(** Minimal dependency-free JSON: value type, compact serializer,
    recursive-descent parser.

    Numbers are [float]s; producers that need 64-bit round-trips (run
    seeds, IEEE-754 IPC bit images) store them as hex {e strings}. The
    serializer emits a decimal that parses back to the same bits (see
    {!number_string}); non-finite numbers serialize as [null] (JSON has
    no literals for them). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. *)

val write : Buffer.t -> t -> unit
(** [write buf v] appends [to_string v] to [buf]. *)

val escape_string : string -> string
(** A JSON string literal, quotes included. *)

val number_string : float -> string
(** A decimal that parses back to the same bits. Integral values below
    1e15 in magnitude print bare ("3", and "-0" for negative zero);
    every other finite value prints as %.12g if that round-trips, else
    as %.17g. This is not always the shortest such decimal, and the
    bytes are pinned: ledger lines and wire replies are compared and
    digested as text. Behaviour on non-finite input is the caller's
    concern (the serializer maps those to [null] before calling
    this). *)

val parse : string -> (t, string) result
(** Parse one complete JSON document; trailing non-whitespace is an
    error. Objects preserve field order; duplicate keys are kept (the
    {!member} accessor returns the first). *)

(** {1 Accessors} — shape-tolerant lookups for ledger readers: each
    returns [None] on a type mismatch rather than raising. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
val to_string_opt : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
