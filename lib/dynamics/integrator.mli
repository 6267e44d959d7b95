(** Numerical integration of the fluid-limit ODE within one phase.

    Within a phase the bulletin board is constant, so the right-hand
    side is Lipschitz (Picard–Lindelöf applies) and a classical
    fixed-step scheme converges; steps never cross a board update — the
    driver integrates phase by phase.  After each step the state is
    projected back onto the product of simplices to absorb rounding
    drift (flows stay feasible exactly). *)

open Staleroute_wardrop

type scheme = Euler | Rk4

val scheme_of_string : string -> scheme option
val scheme_name : scheme -> string

val stage_evals : scheme -> int
(** Derivative evaluations per step (1 for Euler, 4 for RK4) — used by
    instrumented callers to account derivative work. *)

val integrate_phase_into :
  ?probe:Staleroute_obs.Probe.t ->
  ?t0:float ->
  scheme ->
  Instance.t ->
  pool:Staleroute_util.Vec.Pool.t ->
  deriv_into:(Flow.t -> dst:Staleroute_util.Vec.t -> unit) ->
  f:Flow.t ->
  tau:float ->
  steps:int ->
  unit
(** The allocation-free hot path: advance [f] {e in place} by time
    [tau >= 0] in [steps >= 1] equal steps of the autonomous ODE
    [ḟ = deriv f].  Stage buffers are acquired from [pool] once per
    call, so with an allocation-free [deriv_into] (e.g.
    {!Rate_kernel.flow_derivative_into}) the integration allocates
    nothing per step.  Arithmetic is identical to {!integrate_phase} —
    the two produce bit-equal trajectories for the same derivative.

    When [probe] is enabled, one [Step_batch] event is emitted per call
    (stamped [t0], default [0.]) — never per step, so enabling probes
    does not touch the inner loop and a disabled probe costs one
    branch. *)

val integrate_phase :
  scheme ->
  Instance.t ->
  deriv:(Flow.t -> Staleroute_util.Vec.t) ->
  f0:Flow.t ->
  tau:float ->
  steps:int ->
  Flow.t
(** Advance [f0] by time [tau >= 0] in [steps >= 1] equal steps of the
    autonomous ODE [ḟ = deriv f].  Returns a fresh feasible flow.
    Convenience wrapper over {!integrate_phase_into} for an allocating
    derivative. *)
