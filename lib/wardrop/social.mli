(** Social cost and the price of anarchy.

    The social cost of a flow is the average sustained latency
    [C(f) = Σ_e f_e ℓ_e(f_e)]; the price of anarchy compares the
    Wardrop equilibrium's cost to the system optimum's
    (Roughgarden–Tardos).  Used by examples and by sanity checks of the
    equilibrium solver. *)

val cost : Instance.t -> Flow.t -> float
(** [C(f) = Σ_e f_e · ℓ_e(f_e)] (equals [Σ_P f_P ℓ_P]). *)

val optimum : ?max_iter:int -> ?tol:float -> Instance.t -> Frank_wolfe.result
(** System optimum: minimises [C] by {!Frank_wolfe.minimize} with the
    per-edge term [x ℓ_e(x)] (the expression {!cost} sums, so the
    reported objective is bitwise [cost] of the returned flow) and slope
    [ℓ_e(x) + x ℓ'_e(x)], whose path sums are the marginal-cost gradient
    [∂C/∂f_P = Σ_{e∈P} (ℓ_e(f_e) + f_e ℓ'_e(f_e))].

    On kinked latencies ({!Staleroute_latency.Latency.relu},
    {!Staleroute_latency.Latency.pwl}) the marginal cost jumps at the
    kinks, and [C] need not be convex: the pairwise moves can stall
    with a certificate well above [tol], and the solve then runs to its
    [max_iter] sweeps (10 000 by default, about a second on a
    3-commodity 4×4 grid).  The flow is still feasible and [objective]
    is still [cost] of it, but [objective − gap] is no longer a lower
    bound on the optimum.  The test suite checks that such a solve ends
    no worse than projected gradient ({!Descent}). *)

val price_of_anarchy_of :
  Instance.t ->
  equilibrium:Frank_wolfe.result ->
  optimum:Frank_wolfe.result ->
  float
(** [C(equilibrium) / C(optimum)] from solves already at hand:
    [cost] of the equilibrium's flow over the optimum's objective.
    Returns 1 when both costs are zero and [infinity] when only the
    optimum's is. *)

val price_of_anarchy : ?max_iter:int -> ?tol:float -> Instance.t -> float
(** {!price_of_anarchy_of} over a fresh {!Frank_wolfe.equilibrium} and
    {!optimum} of the instance. *)
