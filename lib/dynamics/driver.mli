(** The main simulation driver: integrate a sample-and-migrate policy in
    the bulletin-board model, phase by phase, recording the measurements
    the paper's theorems speak about.

    At the start of each phase the board is re-posted; within the phase
    the fluid ODE is integrated with the board frozen (Eq. 3).  Setting
    [update_period] to [`Fresh] re-posts the board at {e every} internal
    step, modelling up-to-date information (Eq. 1).

    Each posted board is compiled to a {!Rate_kernel} and the phase is
    integrated allocation-free against it ({!Integrator.integrate_phase_into});
    the naive {!Rates.flow_derivative} stays available as the reference
    implementation. *)

open Staleroute_wardrop

type staleness =
  | Fresh
      (** information is always current: the board is re-posted every
          integrator step. *)
  | Stale of float
      (** bulletin-board model with the given update period [T > 0]. *)

type config = {
  policy : Policy.t;
  staleness : staleness;
  phases : int;        (** number of update periods to simulate *)
  steps_per_phase : int;  (** integrator resolution within a phase *)
  scheme : Integrator.scheme;
}

val default_config : policy:Policy.t -> staleness:staleness -> config
(** [phases = 200], [steps_per_phase = 20], RK4. *)

type phase_record = {
  index : int;
  start_time : float;
  start_flow : Flow.t;
  start_potential : float;
  virtual_gain : float;  (** [V(f̂, f_end)] over the phase (Eq. 8) *)
  delta_phi : float;     (** true potential change over the phase *)
}

type result = {
  config : config;
  records : phase_record array;
      (** one per simulated phase.  Under [?colgen] every record's
          [start_flow] is zero-extended to the final active dimension
          (exact: grown columns carried zero flow before they existed),
          so the whole run can be analyzed against [final_instance]. *)
  final_flow : Flow.t;
  final_potential : float;
  final_instance : Instance.t;
      (** the active instance at the end of the run — the input instance
          unless [?colgen] grew it. *)
}

type board_state = {
  posted_at : float;
  board_flow : Flow.t;  (** the flow snapshot the board was posted from *)
  board_latencies : float array;  (** posted per-edge latencies *)
}
(** The serialisable content of the live bulletin-board posting.  Path
    latencies and the kernel are recomputed on restore (deterministic
    functions of the fields here), and the revision stamp is
    re-allocated — it never appears in traces. *)

type snapshot = {
  next_phase : int;  (** first phase the resumed run will execute *)
  flow : Flow.t;  (** bit-exact flow at that phase boundary *)
  board : board_state option;  (** the posting live at the boundary *)
  records_so_far : phase_record list;  (** completed phases, in order *)
  grown_paths : (int * int array) list;
      (** columns admitted by [?colgen] so far, as [(commodity, edge
          ids)] in admission order — [[]] without column generation.
          Resume replays them through {!Path_pool.replay} to
          reconstruct the grown instance (and refuses recorded paths
          that do not validate). *)
}
(** Everything [run] needs to continue at a phase boundary.  Fault
    draws are pure functions of [(seed, index)] (see {!Faults}), so no
    fault RNG state is part of a snapshot.  [Checkpoint] serialises
    snapshots to JSON. *)

val run :
  ?probe:Staleroute_obs.Probe.t ->
  ?metrics:Staleroute_obs.Metrics.t ->
  ?spans:Staleroute_obs.Span.recorder ->
  ?faults:Faults.t ->
  ?guard:Guard.t ->
  ?colgen:Path_pool.t ->
  ?from:snapshot ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(snapshot -> unit) ->
  Instance.t ->
  config ->
  init:Flow.t ->
  result
(** Simulate.  For [Stale t] the phase length is [t]; for [Fresh] the
    phase length defaults to 1 time unit (it only controls recording
    granularity, not information age).

    When [probe] is enabled the run emits, per phase: [Phase_start],
    one [Board_repost] + [Kernel_rebuild] + [Step_batch] per board post
    (once per phase under [Stale], once per integrator step under
    [Fresh]), then [Phase_end] carrying [Φ], the virtual gain and
    [ΔΦ].  When [metrics] is live the run maintains the
    [board_reposts] / [kernel_rebuilds] / [repost_dirty_edges] /
    [repost_dirty_paths] / [derivative_evals] counters, the
    [phase_potential] / [phase_delta_phi] / [phase_virtual_gain] /
    [phase_minor_words] histograms and the [final_potential] gauge.  Both default to disabled, which costs a
    branch per phase and keeps the integration hot path
    allocation-free.

    [faults] (default: the null plan) injects seeded bulletin-board
    faults, keyed by phase index under [Stale] and by the global update
    index (phase × steps + step) under [Fresh]; each injected fault
    emits a [Fault_injected] event and bumps a [faults_injected]
    counter (created only for non-null plans, so fault-free metric
    snapshots are unchanged).  A dropped re-post keeps the previous
    board {e and its kernel} — the board did not change, so the kernel
    is legitimately current.  Under [Fresh] a delayed post behaves as a
    drop (the next step re-posts anyway).  Drop/Delay/Partial faults at
    the very first update degrade to a clean post and emit nothing.

    [spans] (default {!Staleroute_obs.Span.null}) records hierarchical
    wall-clock timing spans: a ["phase"] span per phase with
    ["board_post"] / ["board_repost"], ["kernel_build"] /
    ["kernel_update"] / ["kernel_grow"], ["colgen_price"],
    ["integrate"], ["guard_check"] and ["checkpoint_save"] children
    (plus one ["project"] for the initial projection).  Spans are
    wall-clock — they are {e never} part of a byte-identity surface —
    and the disabled recorder costs one branch per site, no clock
    reads, no allocation.

    [guard] checks the flow's numeric health at every phase boundary
    (see {!Guard}); repairs bump a [guard_repairs] counter.

    [colgen] turns on column generation over the given {!Path_pool}:
    the supplied instance must be {e physically} the pool's seed
    instance ([Path_pool.instance]).  Once per phase, after the phase's
    operative posting is established (the fresh post normally; the
    surviving old board under a dropped or delayed re-post; the first
    step's post under [Fresh]), the pool prices the posted edge
    latencies and, on admission, the active set grows: one
    [Path_growth] event per column, then one [Board_repost] +
    [Kernel_rebuild] pair (a grown set is a new revision — the board is
    re-posted over the grown index with the same snapshot time and edge
    latencies, and the kernel is compiled afresh by
    {!Rate_kernel.build} over the grown instance).  A [paths_grown]
    counter, and the [colgen_memo_hits], [colgen_dijkstra_fallbacks] and
    [colgen_store_forks] fallback counters, are maintained when
    [metrics] is live (created only when [colgen] is supplied, so
    colgen-free metric snapshots are unchanged).  Growth is a pure
    function of the posted board and the tolerance — same-seed runs
    grow identically at any pool width.  Seeding the pool with the full
    enumerated path set makes the run bit-identical to a plain
    [run] without [colgen].

    [from] resumes a run from a {!snapshot} at a phase boundary: the
    probe sees exactly the events of phases [next_phase ..], and the
    result (records, final flow, potential) is bit-identical to the
    uninterrupted run's.  The snapshot flow is deliberately not
    re-projected.  When [checkpoint_every = k > 0], [on_checkpoint]
    receives a snapshot after every [k]-th completed phase. *)

val phase_length : config -> float
(** The duration of one recorded phase under the given configuration. *)
