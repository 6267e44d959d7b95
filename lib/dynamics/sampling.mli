(** Sampling rules [σ_PQ] — step (1) of the paper's two-step rerouting
    policies.

    A sampling rule gives, for an agent on path [P] of commodity [i],
    the probability of sampling candidate path [Q ∈ P_i].  Under stale
    information the rule is evaluated on the {e posted} flow and
    latencies (the bulletin board), not the live state. *)

open Staleroute_wardrop

type t =
  | Uniform
      (** [σ_PQ = 1/|P_i|] — Theorem 6's rule. *)
  | Proportional
      (** [σ_PQ = f_Q / r_i] — sample another agent of the commodity;
          with linear migration this is the replicator dynamics
          (Theorem 7). *)
  | Logit of float
      (** [Logit c]: [σ_PQ ∝ exp (-c · ℓ_Q)] — the paper's smoothed
          approximation of best response (§2.2); origin-independent. *)
  | Mixed of float
      (** [Mixed gamma]: with probability [gamma] sample uniformly,
          otherwise proportionally — the exploration/exploitation
          mixture of the follow-up adaptive-sampling policy (Fischer,
          Räcke & Vöcking, STOC 2006) that escapes the boundary
          (uniform part) yet amplifies good paths (proportional part).
          Requires [gamma ∈ [0, 1]]. *)

val distribution :
  t ->
  Instance.t ->
  commodity:int ->
  flow:Flow.t ->
  latencies:float array ->
  float array
(** Probability of sampling each path of the commodity (aligned with
    [Instance.paths_of_commodity]), read from the posted [flow] and
    [latencies].  Every rule is origin-independent ([σ_PQ = σ_Q]), so
    one distribution serves every agent of the commodity.  Sums to 1 up
    to rounding.  Allocates a fresh array and fills it with
    {!distribution_into}. *)

val distribution_into :
  t ->
  Instance.t ->
  commodity:int ->
  flow:Flow.t ->
  latencies:float array ->
  dst:float array ->
  unit
(** {!distribution} written into the first [|P_i|] cells of [dst]
    (which must be at least that long) — lets {!Rate_kernel} reuse one
    buffer when compiling a board.  Raises [Invalid_argument] when the
    buffer is too small. *)

val positive : t -> bool
(** Whether [σ_PQ > 0] is guaranteed for all [Q] — required by the
    convergence theorems.  True for [Uniform], [Logit] and [Mixed]
    with [gamma > 0]; also true for [Proportional], which holds on
    interior posted flows (a path with [f_Q = 0] is absorbing). *)

val name : t -> string
val pp : Format.formatter -> t -> unit
