(** Minimal JSON values with a deterministic compact printer and a
    round-tripping parser — just enough machinery for trace export.

    Object fields print in exactly the order they were constructed and
    floats use a canonical shortest round-trip representation, so the
    serialised output of a deterministic run is byte-stable: traces
    from two runs with the same seed [diff] clean.

    Extension over strict JSON: the tokens [nan], [inf] and [-inf] are
    printed for (and parsed back to) non-finite floats, keeping
    round-trips total. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** field order is preserved verbatim *)

val float_repr : float -> string
(** Canonical decimal representation: the shortest of [%.15g]/[%.17g]
    that parses back to the identical float ([nan]/[inf]/[-inf] for the
    non-finite values).  Integral floats may print without a decimal
    point — {!to_float} below reads them back transparently. *)

val to_string : t -> string
(** Compact one-line rendering (no whitespace). *)

val of_string : string -> (t, string) result
(** Parse a single JSON value; trailing garbage is an error, and so is
    a number literal beyond the float range (such as [1e400]: an
    infinity is written [inf]/[-inf]).  The error string includes a
    character offset. *)

(** {1 Accessors} (shallow, total) *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_float : t -> float option
(** [Float] or [Int] payload as a float. *)

val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option
