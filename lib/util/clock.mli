(** Wall-clock reads for timing spans and benchmarks.

    Unlike everything else in the library, values read here are {e not}
    reproducible from seeds — they measure the host, not the model.
    Consumers must keep them out of byte-identity surfaces (traces,
    metrics, bench output).  The only consumer is [Staleroute_obs.Span],
    whose profiles are printed by opt-in flags alone. *)

val now_ns : unit -> float
(** Nanoseconds since an arbitrary per-process epoch, nondecreasing
    within the process: a backwards step of the system clock is clamped
    to the highest value handed out so far, so span durations never go
    negative.  Resolution is that of [Unix.gettimeofday] (microseconds
    on every platform we target). *)
