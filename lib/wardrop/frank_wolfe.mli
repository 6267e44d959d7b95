(** Reference solver for edge-separable convex objectives
    [Σ_e term(ℓ_e, f_e)] over the product of path simplices — used to
    compute Wardrop equilibria ([Φ]-minimisers, with exact optimum
    [Φ*]) and system optima.

    The module keeps its historical name: it was a Frank–Wolfe
    (conditional gradient) solver, and the [result] record, the
    signatures, the defaults and the ["fw_solve"] span are unchanged.
    The algorithm is now Gauss–Seidel pairwise path equilibration, the
    Dafermos–Sparrow / gradient-projection family of traffic
    assignment.  A sweep visits the commodities in turn.  Each prices
    its paths by the gradient [c_P = Σ_{e∈P} slope(ℓ_e, f_e)], takes the
    cheapest path [Q] and, for every used path [P], moves
    [δ ∈ [0, f_P]] from [P] to [Q], where [δ] is the root of
    [g(δ) = Σ_{e∈P\Q} slope(ℓ_e, f_e − δ) − Σ_{e∈Q\P} slope(ℓ_e, f_e + δ)]
    (or all of [f_P] when [g] stays positive).  The root is found by a
    safeguarded Illinois (modified regula falsi) iteration on the
    bracket [[0, f_P]]; on affine latencies its first trial point is
    the root.  Only [slope] is evaluated, so no second derivative is
    needed and the same loop serves [Φ] and the marginal social cost.

    Every sweep ends with a fresh gather of the edge loads by
    [Flow.edge_flows_into], with [term] summed over edges in index
    order, so [objective] is bitwise [Potential.phi]/[Social.cost] of
    [flow].  The same gather yields the stop certificate
    [gap = Σ_P f_P (c_P − c_min,i)], a sum of non-negative terms.  On a
    feasible flow it equals the Frank–Wolfe duality gap [⟨∇, f − br⟩]
    at the all-or-nothing vertex [br], so for a convex objective it
    bounds [objective − min] from above (DESIGN.md §15). *)

type result = {
  flow : Flow.t;
  objective : float;   (** objective value at [flow] *)
  gap : float;         (** final certificate [Σ_P f_P (c_P − c_min,i) ≥ 0] *)
  iterations : int;    (** sweeps performed *)
}

val minimize :
  ?max_iter:int ->
  ?tol:float ->
  term:(Staleroute_latency.Latency.t -> float -> float) ->
  slope:(Staleroute_latency.Latency.t -> float -> float) ->
  Instance.t ->
  result
(** Generic driver for the objective [Σ_e term ℓ_e f_e], where
    [slope ℓ_e f_e] is its derivative by the edge load [f_e].  Starts
    from {!Flow.uniform} and stops when the certificate drops to [tol]
    (default [1e-8]) or after [max_iter] (default 10_000) sweeps. *)

val equilibrium :
  ?spans:Staleroute_obs.Span.recorder ->
  ?max_iter:int ->
  ?tol:float ->
  Instance.t ->
  result
(** Wardrop equilibrium: minimises the BMW potential [Φ]; the gradient
    by [f_P] is the path latency [ℓ_P], so the certificate is
    [Σ_P f_P (ℓ_P − ℓ_min,i)].  [spans] (default disabled) records the
    whole solve under a wall-clock ["fw_solve"] span. *)

val optimum_potential : ?max_iter:int -> ?tol:float -> Instance.t -> float
(** [Φ* = min_f Φ(f)]. *)
