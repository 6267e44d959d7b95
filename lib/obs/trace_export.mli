(** Deterministic serialisation of probe event streams and metric
    snapshots: JSONL (one event per line) and CSV.

    Field names and their order are fixed per event kind and floats use
    the canonical {!Json.float_repr}, so two runs with the same seed
    produce byte-identical traces — regression diffs stay clean. *)

val event_to_json : Probe.event -> Json.t
(** One-line object; the first field is always ["ev"] (the kind tag). *)

val event_of_json : Json.t -> (Probe.event, string) result
(** Inverse of {!event_to_json}; tolerates extra fields and refuses a
    non-finite ["time"]. *)

val events_to_string : Probe.event array -> string
(** JSONL: one event per line, each line terminated by ['\n']. *)

val events_of_string : string -> (Probe.event list, string) result
(** Parse a JSONL stream (blank lines are skipped).  The error message
    includes the offending line number. *)

val write_events : out_channel -> Probe.event array -> unit
(** {!events_to_string} to the channel (no flush). *)

(** {1 Versioned traces} *)

val schema_version : int
(** Current trace schema version ([1]). *)

val header_json : Json.t
(** The schema stamp written as the {e first} JSONL record of a
    versioned trace: [{"ev":"trace_meta","schema":N}].  It is a pure
    constant — no wall clock, no host identity — so versioned traces
    stay byte-identical across same-seed runs.  {!Trace_reader} accepts
    both versioned and legacy headerless streams. *)

val write_trace : out_channel -> Probe.event array -> unit
(** {!header_json} on the first line, then {!write_events} — what
    [routesim --trace] writes.  (No flush.) *)

val jsonl_sink : out_channel -> Probe.sink
(** A streaming sink: each emitted event is written (and flushed) as
    one JSONL line the moment it happens — for watching a run live,
    e.g. [tail -f trace.jsonl]. *)

(** {1 Metric snapshots} *)

val snapshot_to_json : Metrics.snapshot -> Json.t
(** Object keyed by metric name in snapshot (sorted) order; counters
    and gauges map to scalars, distributions to summary objects. *)

val snapshot_to_string : Metrics.snapshot -> string
