(** Migration rules [µ(ℓ_P, ℓ_Q)] — step (2) of the rerouting policies —
    and the paper's α-smoothness condition (Definition 2).

    A rule is α-smooth when [µ(ℓ_P, ℓ_Q) <= α (ℓ_P - ℓ_Q)] for all
    [ℓ_P >= ℓ_Q >= 0].  Smoothness is what separates converging from
    oscillating behaviour under stale information. *)

type t =
  | Better_response
      (** Migrate whenever the sampled path is strictly better — not
          α-smooth for any α; oscillates under stale information. *)
  | Linear of { ell_max : float }
      (** [µ = max 0 ((ℓ_P - ℓ_Q) / ℓ_max)] — the paper's linear
          migration policy; [(1/ℓ_max)]-smooth. *)
  | Scaled_linear of { alpha : float }
      (** [µ = min 1 (max 0 (α (ℓ_P - ℓ_Q)))] — linear migration with a
          freely chosen smoothness constant; α-smooth. *)
  | Relative of { scale : float }
      (** [µ = scale · (ℓ_P - ℓ_Q) / ℓ_P] — migrate on the {e relative}
          latency slack (Fischer–Räcke–Vöcking).  {b Not} α-smooth for
          any α (as [ℓ_P → 0] the rule reacts infinitely fast per unit
          of absolute gain), which is exactly why its analysis in the
          follow-up work replaces the slope bound [β] by the elasticity
          of the latency functions.  Requires [scale ∈ (0, 1]]. *)

val prob : t -> ell_p:float -> ell_q:float -> float
(** Migration probability: [0] when [ell_q >= ell_p] (the paper's
    selfishness requirement, which every rule meets by construction)
    and otherwise in [\[0, 1\]], or NaN for a NaN parameter. *)

val alpha : t -> float option
(** The rule's smoothness constant; [None] when not α-smooth for any α
    (better response). *)

val check_smoothness : t -> samples:int -> ell_max:float -> bool
(** Empirically verify Definition 2 on a [samples × samples] grid of
    latency pairs in [\[0, ell_max\]²] against the declared {!alpha}.
    Always false when {!alpha} is [None]. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
