(** Shared workloads and helpers for the experiment suite (E1–E9).

    Each experiment module regenerates one quantitative claim of the
    paper; this module provides the benchmark topologies (with their
    latency functions), run helpers and snapshot extraction. *)

open Staleroute_wardrop
open Staleroute_dynamics

(** {1 Benchmark instances} *)

val two_link : beta:float -> Instance.t
(** The §3.2 oscillation instance: two parallel links with
    [ℓ₁ = ℓ₂ = max{0, β (x - ½)}] and unit demand. *)

val braess : unit -> Instance.t
(** Classic Braess network: latencies [x] / [1] on the upper route,
    [1] / [x] on the lower, [0] on the bridge (price of anarchy 4/3). *)

val parallel : int -> Instance.t
(** [parallel m]: [m] parallel links with affine latencies of cycling
    slopes {1, 2, 3} and spread intercepts — a load-balancing workload
    whose equilibrium mixes several links. *)

val needle : int -> Instance.t
(** [needle m]: one good link ([ℓ = x]) hidden among [m - 1] identical
    bad links ([ℓ = 2]).  The Wardrop equilibrium routes everything on
    the good link; finding it is a sampling problem, which maximally
    separates Theorem 6's [|P|] factor (uniform sampling discovers the
    needle at rate [1/m]) from Theorem 7's [|P|]-free bound (the
    replicator amplifies the needle's share exponentially). *)

val grid33 : unit -> Instance.t
(** 3×3 directed grid with deterministic affine latencies (6 paths,
    [D = 4]). *)

val layered_random : seed:int -> Instance.t
(** Random 2-layer × width-3 DAG with affine latencies drawn from the
    seeded RNG. *)

val poly_parallel : m:int -> degree:int -> Instance.t
(** [m] parallel links with steep polynomial latencies
    [ℓ_j(x) = (1 + j/(4m)) x^degree + small intercept]: the slope bound
    grows linearly with [degree] while the elasticity bound stays
    [degree] — the regime the paper's conclusion flags as problematic
    for slope-based smoothness (used by E10). *)

val two_commodity : unit -> Instance.t
(** Two commodities sharing a bottleneck: commodity A (demand 0.6)
    routes 0→3 over a private link and a shared middle edge; commodity
    B (demand 0.4) routes 1→3 over the same middle edge and a private
    bypass.  Exercises the multicommodity accounting of the model. *)

(** {1 Run helpers} *)

val run :
  ?probe:Staleroute_obs.Probe.t ->
  ?metrics:Staleroute_obs.Metrics.t ->
  ?spans:Staleroute_obs.Span.recorder ->
  ?faults:Faults.t ->
  ?guard:Guard.t ->
  ?colgen:Path_pool.t ->
  ?from:Driver.snapshot ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Driver.snapshot -> unit) ->
  Instance.t ->
  Policy.t ->
  Driver.staleness ->
  phases:int ->
  ?steps_per_phase:int ->
  ?scheme:Integrator.scheme ->
  ?init:Flow.t ->
  unit ->
  Driver.result
(** Drive the fluid dynamics; [scheme] defaults to RK4 (E14's
    synchronous rounds pass Euler).  [init] defaults to the flow
    concentrated on each commodity's first path — deliberately far from
    equilibrium.  [probe] / [metrics] / [spans] default to the ambient
    instrumentation (see {!set_instrumentation}), which itself defaults
    to disabled.  [faults] / [guard] / [colgen] / [from] /
    [checkpoint_every] / [on_checkpoint] are forwarded to {!Driver.run}
    verbatim. *)

val set_instrumentation :
  ?spans:Staleroute_obs.Span.recorder ->
  probe:Staleroute_obs.Probe.t ->
  metrics:Staleroute_obs.Metrics.t ->
  unit ->
  unit
(** Install ambient instrumentation: until {!clear_instrumentation},
    every {!run} call that does not pass its own [?probe] / [?metrics]
    / [?spans] uses these instead.  Lets a harness (the bench runner, a
    CLI) instrument whole experiment modules without changing their
    code.  The binding is domain-local ([Domain.DLS]): a pool task
    installing its own registry does not affect tasks running on other
    domains. *)

val clear_instrumentation : unit -> unit
(** Remove the ambient instrumentation installed by
    {!set_instrumentation}. *)

val worst_start : Instance.t -> Flow.t
(** All demand of each commodity on its path of maximal fresh latency
    under the uniform flow — a deliberately bad starting point. *)

val biased_start : Instance.t -> Flow.t
(** [0.9 · worst_start + 0.1 · uniform] — still far from equilibrium but
    interior, so that proportional sampling (whose boundary faces are
    absorbing) can escape. *)

val phase_start_flows : Driver.result -> Flow.t array
(** Phase-start snapshots plus the final flow (length [phases + 1]). *)

val safe_period : Instance.t -> Policy.t -> float
(** [min T* 1] where [T* = 1/(4DαΒ)], the period used throughout the
    experiments (Theorems 6/7 additionally require [T <= 1]).  Raises
    [Invalid_argument] for non-smooth policies. *)

val sweep_pool :
  ?steps_per_phase:int ->
  phases:int ->
  Instance.t ->
  Staleroute_util.Pool.t option ->
  Staleroute_util.Pool.t option
(** [sweep_pool ~phases inst pool] gates a sweep's fan-out by the
    estimated per-cell work [phases * steps_per_phase *
    Rate_kernel.entry_count inst] (steps default 20, {!run}'s default):
    cells too small to pay domain handoff run sequentially instead
    (see {!Staleroute_util.Pool.gate}).  Pass the smallest instance of
    a heterogeneous sweep.  Never changes output — pooled and
    sequential runs are byte-identical. *)
