(** Round accounting, oscillation detection and convergence-rate
    readings over a simulated run.

    Theorems 6 and 7 bound the number of update periods that do {e not}
    start at a ((weak)) [(δ,ε)]-equilibrium; this module counts those
    rounds on the recorded trajectory, detects the period-2 oscillation
    of the best response dynamics (§3.2), and measures convergence
    speed: the potential gap [Φ(f(t)) - Φ*] of a {!Driver.result},
    exponential-rate fits and time-to-threshold readings. *)

open Staleroute_wardrop

type kind = Strict | Weak
(** [Strict] compares to the commodity minimum latency (Definition 3),
    [Weak] to the commodity average (Definition 4). *)

val bad_rounds :
  Instance.t -> kind -> delta:float -> eps:float -> Flow.t array -> int
(** Number of flows in the array (phase-start snapshots) that are not at
    the requested kind of [(δ,ε)]-equilibrium. *)

val first_good_round :
  Instance.t -> kind -> delta:float -> eps:float -> Flow.t array -> int option
(** Index of the first snapshot at equilibrium, if any. *)

val all_good_after :
  Instance.t -> kind -> delta:float -> eps:float -> Flow.t array -> int option
(** Smallest index from which {e every} later snapshot is at
    equilibrium — the "settling round".  [None] if the last snapshot is
    still bad. *)

type oscillation = {
  period2_distance : float;  (** max over the tail of [|f_k - f_{k+2}|₁] *)
  step_distance : float;     (** min over the tail of [|f_k - f_{k+1}|₁] *)
}

val detect_oscillation : ?tail:int -> Flow.t array -> oscillation
(** Measure period-2 behaviour over the last [tail] (default 20)
    snapshots.  A genuine period-2 oscillation has
    [period2_distance ≈ 0] and [step_distance] bounded away from 0;
    a converged run has both near 0. *)

val is_oscillating : ?tail:int -> ?tol:float -> Flow.t array -> bool
(** Scale-free period-2 test: the per-round movement exceeds [tol]
    (default [1e-3]) while the two-round recurrence is at most 1% of
    it. *)

(** {1 Convergence rate} *)

val potential_gap : ?phi_star:float -> Driver.result -> (float * float) array
(** [(time, Φ - Φ_star)] at every phase start, from the records'
    [start_potential], plus the final flow at the end of the last phase
    — the series [Report.potential_series] reads off the run's trace
    when [phi_star = 0.].  [phi_star] defaults to the Frank–Wolfe
    optimum of the run's [final_instance]. *)

val fit_exponential_rate : (float * float) array -> float option
(** Least-squares fit of [y(t) ≈ C·e^{-r·t}] on the positive part of
    the series (linear regression on [ln y]); returns the rate [r].
    [None] when fewer than two positive samples exist or time does not
    vary. *)

val time_to_threshold : (float * float) array -> threshold:float -> float option
(** First time the series drops to or below [threshold] and stays there
    for the rest of the recording. *)
