(** The virtual potential gain of a phase (Eq. 8 of the paper) and the
    error decomposition of Lemma 3.

    During a phase starting at [f̂] and ending at [f], agents perceive a
    potential gain computed at the posted latencies,
    [V(f̂, f) = Σ_e ℓ_e(f̂_e) (f_e - f̂_e)]; the true gain differs by the
    error terms [U_e = ∫_{f̂_e}^{f_e} (ℓ_e(u) - ℓ_e(f̂_e)) du], and
    Lemma 3 states [Φ(f) - Φ(f̂) = Σ_e U_e + V(f̂, f)].  Lemma 4 bounds
    [ΔΦ <= V/2 <= 0] for smooth policies with [T <= 1/(4DαΒ)]. *)

open Staleroute_wardrop

val virtual_gain : Instance.t -> phase_start:Flow.t -> phase_end:Flow.t -> float
(** [V(f̂, f)], summed in edge order over {!Instance.used_edges}, like
    {!Potential.phi}: an unused edge's term
    [ℓ_e(0)·(0 − 0)] is ±0 and cannot change the sum's bits. *)

val error_terms : Instance.t -> phase_start:Flow.t -> phase_end:Flow.t -> float
(** [Σ_e U_e], evaluated in closed form via latency integrals. *)

val true_gain : Instance.t -> phase_start:Flow.t -> phase_end:Flow.t -> float
(** [Φ(f) - Φ(f̂)] — by Lemma 3 equal to
    [error_terms + virtual_gain] (tested property). *)

(** {1 Per-run phase accounting} *)

type ledger
(** Scratch owned by one run: the current phase's start edge flows and a
    buffer for its end edge flows.  Single-domain mutable state. *)

val ledger : Instance.t -> Flow.t -> ledger
(** [ledger inst f] holds [f]'s edge flows as the first phase's start.
    The instance may later grow ({!Instance.extend}): a flow embeds by
    zero-extension, so its edge flows are unchanged. *)

val close_phase : ledger -> Instance.t -> Flow.t -> float * float
(** [close_phase l inst f] ends the phase at [f] and returns
    [(Φ(f), V(f̂, f))] with [f̂] the held start: one gather of [f]'s
    edge flows, then one loop over {!Instance.used_edges} (through
    {!Staleroute_latency.Latency.phase_sums}, which allocates nothing
    on affine latencies).  Bitwise
    equal to [(Potential.phi inst f, virtual_gain inst ~phase_start
    ~phase_end:f)] for any start flow whose edge flows [l] holds.  [f]'s
    edge flows become the next phase's start.  Raises [Invalid_argument]
    when [f]'s dimension is not [inst]'s path count. *)
