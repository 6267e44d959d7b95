(** Column-generation path sets: lazy growth of the active paths by
    pricing against {e posted} (stale) latencies.

    Nothing in the bulletin-board model requires the path sets [P_i] to
    be enumerated — agents only ever sample among currently-known
    alternatives and migrate toward ones the {e board} says are cheaper.
    A pool therefore starts each commodity from a small seed set (by
    default its shortest path at zero flow) and grows it by pricing: at
    each board post, find the shortest path over the posted edge
    latencies and admit that best-response column only when it
    undercuts the cheapest {e active} path by more than [tolerance].
    Pricing against the posted snapshot — not the live flow — is the
    model-consistent oracle: within a phase agents cannot see latencies
    the board has not published, so newly discovered routes become
    available exactly when a repost would reveal them (DESIGN.md §11).

    Every shortest path here (pricing, the {!Shortest} seed and
    {!unsatisfied_volume}) goes through
    {!Staleroute_graph.Shortest_path}: one relaxation pass in
    topological order when the graph is acyclic (the graph caches its
    order and forward-star arrays once, for every pool over it),
    Dijkstra otherwise.  The pass returns Dijkstra's path and distance
    bits; an exact tie it cannot order as Dijkstra's heap would falls
    back to Dijkstra.

    Growth is a pure function of (active set, posted edge latencies,
    tolerance): deterministic, RNG-free, independent of domain-pool
    width, so same-seed runs grow identically at any [-j] and
    checkpoint resume replays growth bit-for-bit.

    A pool value itself is immutable configuration; the growing state is
    the {!Instance.t} threaded through the dynamics ({!Instance.extend}
    appends columns at the end of the global index, keeping old indices
    stable). *)

open Staleroute_graph

type t

(** How the active set starts. *)
type seed =
  | Shortest
      (** one column per commodity: its shortest path at zero flow
          (best response in the empty network). *)
  | Full
      (** the entire enumerated path set — column generation then never
          grows (every column is already active), which is the
          configuration the differential tests use to prove bitwise
          trajectory identity with the enumerating core. *)
  | Paths of Path.t list array
      (** an explicit per-commodity seed assignment
          ({!Instance.of_paths}). *)

type growth = {
  commodity : int;
  path : Path.t;  (** the admitted column *)
  cost : float;  (** its latency under the posted board *)
  incumbent : float;  (** cheapest {e active} latency it undercut *)
}

val create :
  ?tolerance:float ->
  ?seed:seed ->
  ?max_paths_per_commodity:int ->
  graph:Digraph.t ->
  latencies:Staleroute_latency.Latency.t array ->
  commodities:Commodity.t list ->
  unit ->
  t
(** Builds a pool and its seed instance.  [tolerance] (default [1e-9],
    finite and [>= 0]) is the strict-improvement margin a priced column
    must beat the active minimum by; [seed] defaults to {!Shortest}.
    [max_paths_per_commodity] only applies to the {!Full} seed.  Raises
    [Invalid_argument] on frame errors (via {!Instance.of_paths} /
    {!Instance.create}) or an unreachable commodity; {!Full} can raise
    {!Instance.Path_set_too_large}. *)

val instance : t -> Instance.t
(** The seed instance — the starting point of every run over this
    pool. *)

val tolerance : t -> float

val price : t -> Instance.t -> edge_latencies:float array -> growth list
(** [price t inst ~edge_latencies] runs the pricing oracle against a
    posted latency vector: per commodity, the best response
    ({!Staleroute_graph.Shortest_path.find}: the topological pass on a
    DAG, Dijkstra on a cyclic graph or an exact tie, the same path and
    bits either way), admitted only when strictly cheaper than the
    cheapest active path by more than [tolerance t].  At most one column
    per commodity per call (repeated posts admit more over time).
    Returns admissions in commodity order; pure — no state is consumed.
    Raises [Invalid_argument] on an edge-latency arity mismatch or a
    negative latency; [infinity] (a dead edge) is accepted. *)

val grow :
  t -> Instance.t -> edge_latencies:float array ->
  (Instance.t * growth list) option
(** {!price}, then {!Instance.extend} with the admitted columns.
    [None] when nothing priced in (the instance is returned physically
    unchanged in that case — callers skip the re-post/rebuild).

    [grow] memoizes the last negative outcome: pricing the same active
    instance again under bit-identical posted latencies skips the
    pricing sweep outright (the recomputation could only return the
    same empty list — a pure-function cache, invisible in results, so
    determinism, resume and pooled byte-identity are unaffected).  The
    memo copies the latencies into one buffer the pool owns, so a miss
    allocates nothing after the first.  This makes the pool value
    mutable scratch: do not share one pool across domains.

    Cost per call: the pricing sweep (per commodity one O(V + E)
    topological pass with reused node arrays, see
    {!Staleroute_graph.Shortest_path}), then {!Instance.extend}, which
    appends in place when [inst] is its chain's newest instance. *)

val replay : t -> grown:(int * int array) list -> Instance.t
(** Reconstruct the grown instance from recorded growth:
    [(commodity, edge ids)] in admission order, as stored in a
    {!Staleroute_dynamics.Driver.snapshot} — the checkpoint-resume
    path.  Raises [Invalid_argument] when the recorded paths do not
    validate against the pool's graph and commodities (a hand-edited
    path set must be refused, not resumed). *)

val memo_hits : t -> int
(** How many {!grow} calls the negative-pricing memo answered. *)

val dijkstra_fallbacks : t -> int
(** How many pricings inside {!grow} fell back from the topological
    pass to Dijkstra (a cyclic graph or an exact tie). *)

val store_forks : t -> int
(** How many {!grow} and {!replay} calls extended an instance that was
    not its chain's newest and so copied its incidence store
    ({!Instance.shares_store}). *)

val unsatisfied_volume : t -> Instance.t -> Flow.t -> delta:float -> float
(** The colgen analogue of {!Equilibrium.unsatisfied_volume}, judged
    against the {e full implicit} path set: flow volume on active paths
    whose latency exceeds the true shortest-path latency (over the
    whole graph at the flow's edge latencies, by
    {!Staleroute_graph.Shortest_path.distance}: Dijkstra's bits) by more
    than [delta].
    On a pool whose active set contains every equilibrium-relevant
    column this agrees with the enumerating judge — the differential
    suite pins that down. *)
