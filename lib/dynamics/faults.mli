(** Seeded fault injection for the bulletin board and the network.

    The paper studies boards that are merely {e stale}; real bulletin
    boards are also {e unreliable}: a re-post can be lost, land late,
    refresh only part of the network, or carry measurement noise.  This
    module draws a deterministic per-phase fault plan from an explicit
    seed, so faulted runs are exactly as reproducible as clean ones —
    the fault at phase [k] is a pure function of [(seed, k)],
    independent of pool width, scheduling, or how many draws earlier
    phases made.

    Fault semantics (applied by {!Driver.run} through {!Boundary}):

    - {b Drop}: the re-post is lost; the previous board survives the
      phase boundary, agents act on doubly-stale information, and the
      compiled {!Rate_kernel} is {e legitimately not rebuilt} — the
      board did not change, so [Rate_kernel.is_current] still holds.
      With drop probability [p] the expected interval between
      successful posts inflates from [T] to [T / (1 - p)] (experiment
      E17 measures exactly this).
    - {b Delay}: the post lands a fraction [f] into the phase — the
      first [f·τ] of the phase integrates against the old board, the
      rest against the fresh one.
    - {b Partial}: only a seeded Bernoulli subset of edges refreshes;
      the posted board mixes fresh and stale edge latencies
      (a mixed-age board).
    - {b Noise}: the posted edge latencies are perturbed
      multiplicatively by [exp (sigma · N(0,1))] (lognormal, so they
      stay positive).

    Independent of the board faults, a {b topology outage} plan kills
    and repairs {e edges} on the phase grid (DESIGN.md §14): each edge
    follows a two-state Markov chain — alive → dead with probability
    [outage] per phase, dead → alive with probability [1/outage_mttr]
    (geometric downtime, mean [outage_mttr] phases).  A transition is a
    pure function of [(outage_seed, phase, edge)], so there is no
    mutable plan state and nothing to checkpoint: resume replays the
    chain from phase 0.  A dead edge is {e posted} at {!dead_latency} —
    the instance's true latency functions are never mutated; the
    network forgets nothing when the edge comes back.

    Every injected fault is announced through a typed
    [Probe.Fault_injected] (and [Probe.Edge_down] / [Probe.Edge_up])
    event by the driver paths — zero-cost when the probe is disabled,
    stamped with sim time only, so same-seed faulted traces stay
    byte-identical. *)

open Staleroute_wardrop

type fault =
  | Drop
  | Delay of float  (** landing fraction in (0, 1) *)
  | Partial of float  (** per-edge refresh probability in (0, 1] *)
  | Noise of float  (** lognormal sigma > 0 *)

type spec = {
  drop : float;  (** probability a re-post is lost *)
  delay : float;  (** probability a re-post lands mid-phase *)
  delay_fraction : float;  (** where a delayed post lands, in (0, 1) *)
  partial : float;  (** probability of a partial refresh *)
  partial_fraction : float;  (** per-edge refresh probability, in (0, 1] *)
  noise : float;  (** probability of a noisy post *)
  noise_sigma : float;  (** lognormal sigma of a noisy post, > 0 *)
  outage : float;  (** per-edge per-phase failure probability *)
  outage_mttr : float;  (** mean downtime in phases, >= 1 *)
  outage_seed : int;  (** outage-chain seed (independent of [seed]) *)
  seed : int;  (** board-fault-plan seed *)
}

val none : spec
(** All fault probabilities zero — the plan that never fires. *)

val make :
  ?drop:float ->
  ?delay:float ->
  ?delay_fraction:float ->
  ?partial:float ->
  ?partial_fraction:float ->
  ?noise:float ->
  ?noise_sigma:float ->
  ?outage:float ->
  ?outage_mttr:float ->
  ?outage_seed:int ->
  ?seed:int ->
  unit ->
  spec
(** Build a validated spec.  Probabilities default to 0 and must lie in
    [\[0, 1\]]; the four {e board}-fault probabilities must sum to at
    most 1 ([outage] is a per-edge rate, not part of that budget);
    [delay_fraction] (default 0.5) must be in (0, 1);
    [partial_fraction] (default 0.5) in (0, 1]; [noise_sigma] (default
    0.1) positive; [outage_mttr] (default 4) finite and at least 1;
    seeds default to 0.  Raises [Invalid_argument] otherwise. *)

val of_string : string -> (spec, string) result
(** Parse the CLI syntax: ["none"], or comma-separated fields
    [drop=P], [delay=P] or [delay=P:F], [partial=P] or [partial=P:F],
    [noise=P] or [noise=P:SIGMA], [outage=RATE], [outage=RATE:MTTR] or
    [outage=RATE:MTTR:SEED], [seed=N] — e.g.
    ["drop=0.3,outage=0.05:4,seed=7"].  Unknown keys are rejected with
    an error listing the valid keys. *)

val to_string : spec -> string
(** Canonical rendering; [of_string (to_string s)] recovers a spec with
    identical fault behaviour (parameters of zero-probability faults,
    and seeds that cannot influence a draw, are not printed).  ["none"]
    for specs that never fire. *)

type t
(** A compiled fault plan. *)

val plan : spec -> t
val spec : t -> spec

val is_null : t -> bool
(** Whether the plan can never fire (all board-fault probabilities zero
    {e and} outage rate zero) — callers use this to keep the fault-free
    fast path branchless. *)

val fault_at : t -> index:int -> fault option
(** The board fault injected at phase (or update round) [index] — a
    pure function of the spec's seed and [index].  Always [None] when
    every board-fault probability is zero (an outage-only plan draws no
    board faults). *)

val board :
  ?delta:Bulletin_board.delta ->
  ?down:bool array ->
  t ->
  index:int ->
  fault option ->
  Instance.t ->
  time:float ->
  prev:Bulletin_board.t option ->
  Flow.t ->
  Bulletin_board.t
(** Post the board for a re-post that {e does land} at phase [index]:
    clean for [None] / [Drop] / [Delay] faults, mixed-age for
    [Partial] (stale latencies come from [prev]; a clean post when
    [prev] is [None]), perturbed for [Noise].  The seeded draws (edge
    subset, noise) are pure functions of [(seed, index)].  Drops and
    delays are the {e caller's} responsibility — this function is the
    "what lands" half of the fault model.

    [?down] pins the currently dead edges at {!dead_latency} in the
    posted latencies (after any partial mix or noise perturbation —
    the RNG stream consumption per edge is unchanged, so board-fault
    draws stay outage-independent).  Callers pass it only while the
    down-set is non-empty: an all-alive outage state takes the same
    clean [repost] path, bit for bit, as a run with no outage plan.

    The faulted or outage-pinned latencies become one
    [?edge_latencies] override, posted by the delta-aware
    {!Bulletin_board.repost} when [prev] is available (bitwise
    identical to {!Bulletin_board.post}) and by {!Bulletin_board.post}
    otherwise; pass [?delta] to reuse scratch across calls and to read
    the dirty-work counts and the changed-path set afterwards. *)

(** {1 Topology outages} *)

val dead_latency : float
(** The posted latency of a dead edge ([1e12]).  Finite — posted
    values flow through latency differences and the potential
    integrand, and [inf - inf] would poison them with NaN — yet large
    enough that no dead edge ever prices into a shortest path or
    attracts migration. *)

val edge_down : t -> edge:int -> phase:int -> bool
(** Pure oracle: whether [edge] is dead {e during} [phase], obtained by
    folding the transition chain from phase 0.  Independent of query
    order, prior draws and pool width; [false] everywhere when the
    outage rate is zero. *)

type outage
(** Incrementally maintained down-set — a cache of {!edge_down} across
    all edges, advanced one phase at a time.  Per-run mutable state
    (like a [Bulletin_board.delta] scratch): never share one across
    pool tasks, and never checkpoint it — {!outage_start} rebuilds it
    purely. *)

val outage_start : t -> edges:int -> phase:int -> outage option
(** The down-set {e entering} [phase] (transitions [0 .. phase-1]
    applied), or [None] when the plan's outage rate is zero.  Resuming
    a checkpoint at phase [k] and starting fresh agree bit-for-bit
    because the chain is pure. *)

val outage_step :
  outage -> phase:int -> on_change:(edge:int -> down:bool -> unit) -> unit
(** Apply phase [phase]'s transitions in ascending edge order, calling
    [on_change] for each edge that flips (drivers emit
    [Probe.Edge_down] / [Probe.Edge_up] there).  After the call the
    state matches {!edge_down} at [phase]. *)

val outage_down : outage -> bool array option
(** The live down-set flags, or [None] when every edge is alive.  The
    array is the state's own buffer — treat it as read-only and do not
    retain it across {!outage_step} calls. *)

val path_dead : Instance.t -> down:bool array -> int -> bool
(** Whether path [p] crosses any dead edge — the predicate the drivers
    hand to [Flow.evacuate]. *)

val dead_edge_latencies : Instance.t -> down:bool array -> Flow.t -> float array
(** Fresh flow-induced edge latencies with the dead edges pinned at
    {!dead_latency} — what a clean re-post posts while the down-set is
    non-empty. *)

val alive_latencies : down:bool array -> float array -> float array
(** A copy of [latencies] with dead edges at [infinity] — the pricing
    weights for column generation, so pricing never routes a detour
    over a dead edge ({!Staleroute_graph.Shortest_path} accepts
    [infinity]; it only rejects negative weights). *)
