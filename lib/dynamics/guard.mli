(** Numeric guardrails over the integration state.

    A user-supplied latency (or a NaN policy parameter such as
    [Sampling.Logit nan]) that produces a NaN poisons the whole
    trajectory: the projection in the integrator keeps multiplying by
    NaN and the run silently reports garbage.  A guard checks the flow's {e health} at phase
    boundaries — every entry finite, per-commodity feasibility within
    tolerance — and applies a configurable policy when the check
    fails:

    - {!Fail_fast}: raise {!Unhealthy} with a structured diagnostic
      naming the phase, the commodity and the offending paths;
    - {!Repair}: clip non-finite and negative entries to 0 and restore
      each commodity's demand (uniformly when its mass vanished
      entirely), count a [guard_repairs] metric and emit a
      [Probe.Guard_trip] event;
    - {!Ignore}: observe only — emit the probe event and keep going
      (the pre-guard behaviour, but visible in traces).

    Checks run only at phase (or round) boundaries, never inside the
    integrator hot path: a guard costs one [O(paths)] scan per phase
    and nothing per step. *)

open Staleroute_wardrop

type policy = Fail_fast | Repair | Ignore

type t = private { policy : policy; tol : float }

val make : ?tol:float -> policy -> t
(** A guard with the given policy; [tol] (default [1e-6]) bounds the
    tolerated per-commodity demand error and per-path negativity.
    Raises [Invalid_argument] unless [tol] is finite and positive. *)

val fail_fast : t
val repair : t
val ignore_ : t
(** The three policies at the default tolerance. *)

val of_string : string -> (t, string) result
(** ["fail-fast"], ["repair"] or ["ignore"], optionally suffixed with
    [:TOL] (e.g. ["repair:1e-9"]). *)

val to_string : t -> string

type cause =
  | Numeric  (** non-finite / negative entries, demand error *)
  | Network_partitioned
      (** an outage left a commodity with no surviving path *)

type diagnostic = {
  index : int;  (** phase or round index of the failed check *)
  time : float;  (** sim time of the boundary *)
  commodity : int;  (** first offending commodity *)
  paths : int list;  (** offending global path indices within it *)
  detail : string;  (** human-readable description *)
  cause : cause;  (** what kind of check failed *)
}

exception Unhealthy of diagnostic
(** Raised by {!Fail_fast} guards.  The exception printer renders the
    full diagnostic. *)

val check :
  t ->
  ?probe:Staleroute_obs.Probe.t ->
  ?repairs:Staleroute_obs.Metrics.counter ->
  Instance.t ->
  index:int ->
  time:float ->
  Flow.t ->
  unit
(** Check (and under {!Repair} fix, in place) the flow at a phase
    boundary.  Healthy flows pass without emitting anything.  [repairs]
    is incremented once per repaired boundary; [probe] receives one
    [Guard_trip] event per unhealthy boundary under {!Repair} /
    {!Ignore}. *)

val check_partition :
  ?guard:t ->
  ?probe:Staleroute_obs.Probe.t ->
  Instance.t ->
  index:int ->
  time:float ->
  int list ->
  unit
(** Judge the partitioned-commodity list returned by [Flow.evacuate]
    (empty = healthy, nothing happens).  A partition has no repair —
    there is no surviving path to carry the stranded demand — so
    {!Repair} and {!Ignore} both emit a [Guard_trip] with
    [action = "partition"] (and [worst = infinity]) and continue, while
    {!Fail_fast} — or no guard at all — raises {!Unhealthy} with a
    {!Network_partitioned} diagnostic naming the first stranded
    commodity and its paths. *)
