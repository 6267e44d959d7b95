(** Stream a JSONL trace back into typed {!Probe.event}s — the reading
    half of {!Trace_export}.

    The fold API consumes the file line by line and never holds more
    than one line in memory, so traces of any length (a
    multi-million-event fresh-mode trace) read in constant space.

    Both trace flavours are accepted: {e versioned} traces whose first
    record is the [Trace_export.header_json] schema stamp, and {e
    legacy} headerless traces from before the stamp existed.  An
    unsupported schema version is an error, not a silent misparse. *)

type meta = { schema : int }
(** The parsed header of a versioned trace. *)

val fold_file :
  string ->
  init:'a ->
  f:('a -> Probe.event -> 'a) ->
  (meta option * 'a, string) result
(** Fold [f] over every event in the named file, in order.  [meta] is
    [Some] when the first record was a schema stamp (which is not
    passed to [f]), [None] for a legacy trace.  Blank lines are
    skipped; the error message names the offending line, and an
    unreadable file is an [Error], not an exception. *)

val read_file : string -> (meta option * Probe.event list, string) result
(** Convenience: the whole trace as a list (does hold every event in
    memory — prefer {!fold_file} for analytics). *)

(** {1 Trace diffing} *)

type divergence = {
  line : int;  (** 1-based line number of the first differing line *)
  byte_offset : int;
      (** byte offset of that line's first byte in the {e first} file *)
  left : string option;  (** the raw line; [None] if the file ended *)
  right : string option;
  left_event : Probe.event option;  (** parsed form, when it parses *)
  right_event : Probe.event option;
}

type diff_result =
  | Identical of { events : int }  (** byte-identical; [events] counted *)
  | Diverged of divergence

val diff_files : string -> string -> (diff_result, string) result
(** First divergent line between two traces, with its byte offset —
    turning a byte-identity contract breakage from a bare [false] into
    a pinpointed event.  Lines are compared {e verbatim} (a legacy and
    a versioned trace of the same run differ on line 1, by design). *)

val describe : diff_result -> string
(** One-paragraph human rendering ("identical (N events)" or the
    divergence with both lines). *)
