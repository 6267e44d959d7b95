(** Mitzenmacher's bulletin board: the model of stale information.

    At the beginning of every phase of length [T] the current flow and
    the latencies it induces are posted; all agent decisions during the
    phase read the posted values.  A board is an immutable snapshot.

    Re-posting is delta-aware (DESIGN.md §13): {!repost} starts from the
    previous snapshot, touches only edges and paths whose inputs moved
    bits, and still produces a board {b bitwise identical} to a fresh
    {!post}.  Both are one routine: a {!post} is a repost with every
    edge dirty, and dirty edge loads come from [Flow.edge_flows_into],
    the one load gather.

    Edge latencies are a rerooting persistent array (Conchon &
    Filliâtre, "A Persistent Union-Find Data Structure", 2007) whose
    versions are the boards: a board and the boards reposted from it
    share one array, a repost writes its dirty edges only
    (O(dirty edges), never O(edges)) and keeps their old values in an
    undo record, and reading an older board replays the records between
    it and the newest first.  So every board still reads its own bits,
    but the boards of one family must be read from one domain at a time
    — as a run does, since each run reposts its own chain.  Holding an
    older board keeps every later board of its family alive (the undo
    chain reaches them), with their flows and path latencies.  On an
    array of at most 256 edges (a minor-heap block) a repost copies
    instead and starts a family of its own. *)

open Staleroute_wardrop

type latencies
(** A family's shared edge-latency cells; read a board's through
    {!edge_latencies}. *)

type undo
(** How a board that is not its family's newest reaches its latencies. *)

type t = private {
  posted_at : float;          (** time [t̂] of the snapshot *)
  flow : Flow.t;              (** [f(t̂)] *)
  path_latencies : float array;  (** [ℓ_P(f(t̂))] by global path index *)
  cells : latencies;  (** read through {!edge_latencies} *)
  mutable undo : undo;
  revision : int;             (** process-wide post ordinal, see {!revision} *)
  clean : bool;
      (** whether the edge latencies are exactly the ones [flow] induces —
          [true] for {!post}/{!repost} snapshots of the flow, [false]
          when the caller supplied [?edge_latencies] (fault injection
          posts mixed-age or noisy boards).  {!repost} only trusts the
          sparse gather from a clean previous board; from an unclean
          one it dirties every edge. *)
}

val edge_latencies : t -> float array
(** The board's edge latencies [ℓ_e(f(t̂))] by edge id, without a copy:
    the family's shared array, after replaying it to this board.  Valid
    until another board of the family is read or reposted from; do not
    mutate.  On the newest board of a family (the live board of a run)
    this is O(1); [k] versions back it replays [k] undo records, in a
    loop.  Passing the array as {!repost}'s [?edge_latencies] is safe:
    repost takes it by value before it reads [prev]. *)

val post :
  ?edge_latencies:float array -> Instance.t -> time:float -> Flow.t -> t
(** Snapshot the given flow at the given time.  The flow is copied and
    the process-wide {!posts} counter advances — the new board carries a
    strictly larger revision than every earlier one.  The counter is
    atomic: boards posted concurrently from pooled domains still get
    distinct, strictly increasing revisions.

    [?edge_latencies] posts {e caller-supplied} edge latencies instead
    of the ones the flow induces — how fault injection ({!Faults})
    models noisy, partially refreshed or outage-pinned information.
    The array is copied, path latencies are summed from it exactly as
    from induced ones, and the board is marked unclean.  Raises
    [Invalid_argument] when [flow] does not have one entry per path or
    [edge_latencies] one entry per edge. *)

val restore :
  Instance.t -> time:float -> flow:Flow.t -> edge_latencies:float array -> t
(** [post ~edge_latencies], plus a cleanliness check: when the supplied
    latencies are bitwise the ones the flow induces, the board is marked
    clean.
    The checkpoint-resume constructor — a resumed run must drive the
    same sparse-vs-full {!repost} decisions (and dirty-work counters) as
    the uninterrupted one, and this cold-path verification is what
    restores the [clean] bit a serialized board lost. *)

(** {1 Delta-aware re-posting} *)

type delta
(** Persistent scratch for {!repost}: dirty-edge and
    dirty-path marks, their packed lists, and the changed-path set.  Reusable across reposts (the
    driver paths allocate one per run), so a steady-state repost
    allocates only the new board's flow, path latencies and the old
    values of its dirty edges — nothing sized by the edge count.
    Auto-resizes to the largest instance it has served; not
    shareable across domains (single-domain state, like probes). *)

val delta : unit -> delta
(** A fresh, empty scratch value. *)

val dirty_edges : delta -> int
(** Number of edges whose flow was re-gathered (latency re-evaluated)
    by the last repost through this scratch — the sparse-work measure
    the [repost_dirty_edges] metric reports. *)

val dirty_paths : delta -> int
(** Number of paths whose latency was recomputed by the last repost. *)

val changed_count : delta -> int
(** Size of the changed-path set of the last repost (see
    {!changed_paths}). *)

val changed_paths : delta -> int array
(** The changed-path set of the last repost: global indices of paths
    whose posted flow or posted latency moved bits, ascending — exactly
    the [?changed] argument {!Rate_kernel.update} wants.  Only the
    first {!changed_count} entries are meaningful; the array is the
    scratch's own buffer (do not mutate, do not hold across reposts). *)

val repost :
  ?delta:delta ->
  ?edge_latencies:float array ->
  Instance.t ->
  prev:t ->
  time:float ->
  Flow.t ->
  t
(** [repost inst ~prev ~time flow] snapshots [flow] like {!post}, but
    starts from the previous board: only edges incident to a path whose
    flow moved bits get their flow re-gathered (by
    [Flow.edge_flows_into]) and latency re-evaluated, and only paths
    incident to such an edge get their latency recomputed.  The result
    is {b bitwise identical} to [post inst ~time flow].  From an
    unclean [prev] (see {!type-t}) every edge is dirty instead; the
    changed set is still extracted.

    With [?edge_latencies] the board is [post ~edge_latencies]'s,
    bitwise: dirty edges are the supplied latencies that moved bits
    against [prev]'s, and only their incident paths' latencies
    recompute.  Raises [Invalid_argument] when [flow], [prev] or
    [edge_latencies] does not match the instance's dimensions. *)

val repost_grown : Instance.t -> prev:t -> t
(** Re-post [prev] over a grown active set ([inst] must be an
    {!Instance.extend} of the instance [prev] was posted over): same
    snapshot time, flow zero-extended, the very edge-latency version of
    [prev] (admitted columns carry zero posted flow, so edge flows are
    untouched), and only the new columns' path
    latencies computed.  Bitwise identical to [post ~edge_latencies]
    of [prev]'s latencies over the grown instance, except that
    cleanliness is inherited from [prev] (so the next {!repost} stays
    sparse).  Raises [Invalid_argument] when [inst] is smaller than
    [prev]'s index or over a different graph. *)

val revision : t -> int
(** The value of the post counter when this board was posted.  A
    {!Rate_kernel} remembers the revision it was compiled at; comparing
    the two ({!Rate_kernel.is_current}) turns the "rebuild the kernel on
    every re-post" convention into a checked invariant. *)

val posts : unit -> int
(** Total number of boards posted by this process so far. *)
