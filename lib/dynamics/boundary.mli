(** The update boundary: everything that lives across bulletin-board
    re-posts, for {!Driver.run}.

    Agents act on a board that is re-posted only at update boundaries
    ([t̂ = ⌊t/T⌋·T], Eq. 3).  An engine owns the live posting (the board
    and the {!Rate_kernel} compiled against it), the repost scratch,
    the active instance with its column-generation pool and admitted
    columns, the integrator's scratch pool sized to the active
    dimension, and the outage chain with its current down-set.  The
    driver keeps only its time grid and calls, at every update boundary
    and in this order:

    + {!outage} — advance the edge-failure chain and evacuate dead
      paths, before anything is posted;
    + {!attempt} — the update's (possibly faulted) re-post;
    + {!grow} — column-generation pricing against the posting now live;

    then {!post} where a delayed re-post lands, {!integrate} inside the
    update period, and {!guard_check} at each recorded boundary.  Every
    board post or repost, kernel compile or grow, fault, outage
    transition and path growth is announced here — probe events,
    metrics and spans alike. *)

open Staleroute_wardrop

type t

type board_state = {
  posted_at : float;
  board_flow : Flow.t;  (** the flow snapshot the board was posted from *)
  board_latencies : float array;  (** posted per-edge latencies *)
}
(** The serialisable content of the live posting (see
    {!Driver.board_state}). *)

type resume = {
  next_index : int;  (** first update index of the resumed run *)
  start_flow : Flow.t;  (** bit-exact flow at that boundary *)
  posted : board_state option;  (** the posting live at the boundary *)
  grown_paths : (int * int array) list;
      (** admitted columns as [(commodity, edge ids)], oldest first *)
}

val create :
  ?probe:Staleroute_obs.Probe.t ->
  ?metrics:Staleroute_obs.Metrics.t ->
  ?spans:Staleroute_obs.Span.recorder ->
  ?faults:Faults.t ->
  ?guard:Guard.t ->
  ?colgen:Path_pool.t ->
  ?resume:resume ->
  phases:int ->
  steps:int ->
  Instance.t ->
  Policy.t ->
  init:Flow.t ->
  t * Flow.t
(** An engine with nothing posted yet, and the run's starting flow.

    Validates the run, raising [Invalid_argument "Driver.run: ..."]
    when [phases < 0], [steps < 1] (integrator steps per update),
    [colgen] was seeded over another instance than the given one, or —
    without [resume] — [init] is infeasible.  The starting flow is then
    [init] projected under a ["project"] span.  With [resume] it is a
    copy of [start_flow], deliberately not re-projected; recorded grown
    paths are replayed through {!Path_pool.replay} (refused without
    [colgen]), the flow must match the replayed dimension, and the
    posting is restored with its kernel rebuilt (no events).

    Registers the [board_reposts], [repost_dirty_edges],
    [repost_dirty_paths] and [kernel_rebuilds] counters, plus
    [faults_injected] for a non-null plan, [paths_grown] under [colgen]
    and [guard_repairs] under [guard].  The outage chain starts at
    update [next_index] (0 without [resume]); it is rebuilt purely from
    the plan, never checkpointed. *)

val outage : t -> index:int -> time:float -> Flow.t -> unit
(** Advance the outage chain to update [index] (one [Edge_down] /
    [Edge_up] event per flipped edge) and, while any edge is dead,
    evacuate the flow off dead paths {e in place} and hand stranded
    commodities to {!Guard.check_partition}.  Later posts pin dead edges
    at {!Faults.dead_latency} and pricing skips them.  A no-op without
    an outage plan; with every edge alive, posts take the clean path
    bit for bit. *)

type attempt =
  | Posted  (** a board landed and its kernel compiled *)
  | Kept  (** the re-post was lost: the old posting stays current *)
  | Delayed of int
      (** the re-post lands at grid slot [s], [1 <= s < slots]; the
          caller integrates the head of the period on the old posting
          and calls {!post} at slot [s] *)

val attempt : t -> index:int -> time:float -> slots:int -> Flow.t -> attempt
(** The update-[index] re-post of the flow, faulted as
    {!Faults.fault_at} draws.  An injected fault emits a
    [Fault_injected] event.  A [Drop] keeps the live posting and its
    kernel, which stays current because the board did not change.  A
    [Delay] with fraction [φ] lands at slot [max 1 (min (slots - 1)
    (round (φ·slots)))] of the period's [slots]-point grid.  With
    [slots < 2] there is no interior slot, and it is kept like a drop.
    A [Partial] or [Noise] fault posts a mixed-age or perturbed board.
    Before the first posting, [Drop], [Delay] and [Partial] have
    nothing to lean on: they degrade to a clean post and emit nothing. *)

val post : t -> time:float -> Flow.t -> unit
(** A clean post of the flow, where a delayed re-post lands.
    Delta-reposts over the live board when there is one. *)

val grow : t -> index:int -> time:float -> Flow.t -> Flow.t
(** Column generation at update [index]: price the live board's edge
    latencies (dead edges at [infinity]) and, on admission, grow the
    active instance.  Emits one [Path_growth] per column, then a
    [Board_repost] / [Kernel_rebuild] pair: a grown set is a new
    revision, re-posted over the grown index with the same time and
    latencies and compiled by {!Rate_kernel.build}.  Returns the flow
    zero-extended to the new dimension (exact: new columns carry no
    flow), or the flow itself when nothing was admitted or there is no
    [colgen] pool. *)

val integrate :
  t -> Integrator.scheme -> t0:float -> tau:float -> steps:int -> Flow.t -> unit
(** Advance the flow in place by [tau] in [steps] steps against the live
    kernel, under an ["integrate"] span — the allocation-free
    {!Integrator.integrate_phase_into} over the engine's scratch pool.
    Asserts the kernel is current for the live board; raises
    [Invalid_argument] before the first posting. *)

val instance : t -> Instance.t
(** The active instance: the input instance unless [colgen] grew it. *)

val widen : t -> Flow.t -> Flow.t
(** Zero-extend a flow of an earlier, smaller active set to the current
    dimension (the flow itself when it already has it). *)

val guard_check : t -> index:int -> time:float -> Flow.t -> unit
(** Run the guard (if any) on the flow under a ["guard_check"] span;
    repairs bump [guard_repairs]. *)

val board_state : t -> board_state option
(** A copy of the live posting, for a checkpoint. *)

val grown_paths : t -> (int * int array) list
(** Columns admitted so far (including replayed ones), oldest first. *)
