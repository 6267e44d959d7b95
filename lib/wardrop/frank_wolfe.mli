(** Frank–Wolfe (conditional gradient) minimisation of edge-separable
    convex objectives [Σ_e term(ℓ_e, f_e)] over the product of path
    simplices — used to compute Wardrop equilibria ([Φ]-minimisers,
    with exact optimum [Φ*]) and system optima.

    Each iteration prices every path by the gradient
    [∂/∂f_P = Σ_{e∈P} slope(ℓ_e, f_e)] and line-searches two candidate
    steps by golden section, keeping the better one:
    - a {e pairwise} step moving, within each commodity, the mass of
      the worst used path onto the cheapest path (linear convergence on
      products of simplices, but it can stall when that mass is tiny);
    - a {e classic} step towards the all-or-nothing vertex that routes
      each commodity's whole demand onto its cheapest path (never
      stalls, but zigzags).

    The Frank–Wolfe duality gap [⟨∇, f - br⟩] against that vertex
    upper-bounds the suboptimality, giving a sound stopping criterion.
    It is computed in floating point and can come out a few ulps
    negative when the iterate is exactly the vertex optimum (Braess
    reports [-4.5e-17]).

    The solver works in edge space over scratch arrays allocated once
    per solve.  Edge loads are gathered in [Flow.edge_flows]'s order and
    [term] is summed over edges in index order, so every result is
    bitwise that of evaluating [Potential.phi]/[Social.cost] and the
    path gradients afresh on each iterate (DESIGN.md §15). *)

type result = {
  flow : Flow.t;
  objective : float;   (** objective value at [flow] *)
  gap : float;         (** final duality gap; may be a few ulps below 0 *)
  iterations : int;
}

val minimize :
  ?max_iter:int ->
  ?tol:float ->
  term:(Staleroute_latency.Latency.t -> float -> float) ->
  slope:(Staleroute_latency.Latency.t -> float -> float) ->
  Instance.t ->
  result
(** Generic driver for the objective [Σ_e term ℓ_e f_e], where
    [slope ℓ_e f_e] is its derivative by the edge load [f_e].  Stops
    when the duality gap drops below [tol] (default [1e-8]) or after
    [max_iter] (default 10_000) iterations. *)

val equilibrium :
  ?spans:Staleroute_obs.Span.recorder ->
  ?max_iter:int ->
  ?tol:float ->
  Instance.t ->
  result
(** Wardrop equilibrium: minimises the BMW potential [Φ]; the gradient
    by [f_P] is the path latency [ℓ_P].  [spans] (default disabled)
    records the whole solve under a wall-clock ["fw_solve"] span. *)

val optimum_potential : ?max_iter:int -> ?tol:float -> Instance.t -> float
(** [Φ* = min_f Φ(f)]. *)
