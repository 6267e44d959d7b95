(** Dense trajectory recording and convergence-rate analysis.

    {!Driver.run} records one snapshot per bulletin-board phase; this
    module samples {e inside} phases too, and provides the measurement
    helpers used to quantify convergence speed: the potential gap
    [Φ(f(t)) - Φ*] over time, exponential-rate fits, and
    time-to-threshold readings. *)

open Staleroute_wardrop

type sample = { time : float; flow : Flow.t }

type t = sample array
(** Samples in increasing time order, starting at [t = 0]. *)

val record :
  ?probe:Staleroute_obs.Probe.t ->
  ?metrics:Staleroute_obs.Metrics.t ->
  ?spans:Staleroute_obs.Span.recorder ->
  ?faults:Faults.t ->
  ?guard:Guard.t ->
  ?colgen:Path_pool.t ->
  Instance.t ->
  Driver.config ->
  init:Flow.t ->
  samples_per_phase:int ->
  t
(** Integrate the same dynamics as {!Driver.run} (same staleness
    semantics, scheme, policy and phase length) but keep
    [samples_per_phase >= 1] evenly spaced snapshots inside every
    phase, plus the initial state.  Each phase runs as
    [samples_per_phase] chunks of [max 1 (steps_per_phase /
    samples_per_phase)] integrator steps, so the step count per phase
    matches {!Driver.run} only when [samples_per_phase] divides
    [steps_per_phase] (20 steps at 3 samples run 3 × 6 = 18; 2 steps
    at 3 samples run 3 × 1 = 3).  Under [Fresh] the board is re-posted
    once per chunk, not per step.

    Raises [Invalid_argument] like {!Driver.run} on an infeasible
    [init], [steps_per_phase < 1] or [phases < 0], and on
    [samples_per_phase < 1].

    An enabled [probe] receives [Board_repost] / [Kernel_rebuild] /
    [Step_batch] events plus the fault, outage, guard and growth events
    below; no [Phase_start] / [Phase_end].  A live [metrics] registry
    maintains the [board_reposts], [kernel_rebuilds],
    [repost_dirty_edges] and [repost_dirty_paths] counters, plus
    [faults_injected] for a non-null fault plan, [guard_repairs] with
    a guard and [paths_grown] with [colgen].  There are no derivative
    counter and no phase histograms.  [spans] records the same
    wall-clock timing spans as {!Driver.run} (minus the per-phase
    parent and ["checkpoint_save"]).  All default to disabled.

    [faults] and [guard] mirror {!Driver.run}: faults are keyed by
    phase index under [Stale] (a delayed post lands on the {e chunk}
    grid here, collapsing to a drop when [samples_per_phase = 1]) and
    by the global chunk index under [Fresh]; the guard checks every
    phase boundary.

    [colgen] mirrors {!Driver.run}: the instance must be physically the
    pool's seed instance, growth is priced once per phase against the
    operative posting, and every sample is zero-extended to the final
    active dimension (exact — grown columns carried zero flow before
    admission). *)

val potential_gap : Instance.t -> ?phi_star:float -> t -> (float * float) array
(** Series of [(time, Φ(f(t)) - Φ_star)]; [phi_star] defaults to the
    Frank–Wolfe optimum of the instance. *)

val series : (Flow.t -> float) -> t -> (float * float) array
(** Generic observable over the trajectory. *)

val fit_exponential_rate : (float * float) array -> float option
(** Least-squares fit of [y(t) ≈ C·e^{-r·t}] on the positive part of
    the series (linear regression on [ln y]); returns the rate [r].
    [None] when fewer than two positive samples exist or time does not
    vary. *)

val time_to_threshold : (float * float) array -> threshold:float -> float option
(** First time the series drops to or below [threshold] and stays there
    for the rest of the recording. *)
