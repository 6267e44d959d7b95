(** The Beckmann–McGuire–Winsten potential
    [Φ(f) = Σ_e ∫₀^{f_e} ℓ_e(u) du].

    [Φ] is the Lyapunov function of every selfish rerouting policy under
    fresh information (Theorem 2) and, per phase, of α-smooth policies
    under stale information (Lemma 4 / Corollary 5).  Its minimisers are
    exactly the Wardrop equilibria.  Integrals are evaluated in closed
    form by {!Staleroute_latency.Latency.integral}. *)

val phi : Instance.t -> Flow.t -> float
(** Potential of a flow. *)

val phi_of_edge_flows : Instance.t -> float array -> float
(** Same, from precomputed edge loads ({!Flow.edge_flows}).  The sum
    runs in edge order over {!Instance.used_edges}, the edges some path
    of the instance uses: every other edge carries no load, and its
    term [∫₀⁰ ℓ_e = ±0] cannot change the sum's bits.  Raises
    [Invalid_argument] when [fe] does not hold one load per edge. *)

val upper_bound : Instance.t -> float
(** [Φ(f) <= ell_max] for every feasible [f] (paper, proof of Thm 6);
    this returns the instance's [ℓ_max]. *)
