(** Instances of the Wardrop routing game.

    An instance couples a multigraph with one latency function per edge
    and a set of commodities; on construction the full path set [P_i] of
    every commodity is enumerated and indexed globally, and the paper's
    structural constants are derived:

    - [max_path_length] — the constant [D];
    - [beta] — the maximal slope of any edge latency, the constant [β];
    - [ell_max] — an upper bound on any path latency
      ([max_P Σ_{e∈P} ℓ_e(1)]), the constant [ℓ_max]. *)

open Staleroute_graph

type t

exception Path_set_too_large of { commodity : int; cap : int }
(** Raised by {!create} when a commodity's simple-path count exceeds the
    configured cap: the typed, loud failure mode of the enumerating
    constructor (never silent truncation, never an OOM).  At sizes where
    this fires, build the instance through {!Path_pool} instead. *)

val create :
  ?max_paths_per_commodity:int ->
  graph:Digraph.t ->
  latencies:Staleroute_latency.Latency.t array ->
  commodities:Commodity.t list ->
  unit ->
  t
(** Builds an instance by enumerating every simple path of every
    commodity.  Raises [Invalid_argument] when the latency array length
    differs from the edge count, total demand is not 1 (tolerance 1e-9,
    per the paper's normalisation) or a commodity has no path; raises
    {!Path_set_too_large} when enumeration exceeds the per-commodity cap
    (default 10_000). *)

val of_paths :
  graph:Digraph.t ->
  latencies:Staleroute_latency.Latency.t array ->
  commodities:Commodity.t list ->
  paths:Path.t list array ->
  unit ->
  t
(** Builds an instance from an {e explicit} per-commodity path
    assignment (one list per commodity, in commodity order) instead of
    enumerating — the constructor behind {!Path_pool}'s seed sets.  The
    global path index is commodity-major in the given order.  Raises
    [Invalid_argument] on the same frame errors as {!create}, on an
    empty list, on a path that does not connect its commodity's
    terminals, or on a duplicate path within a commodity. *)

val extend : t -> paths:(int * Path.t) list -> t
(** [extend t ~paths] is [t] with the given [(commodity, path)] columns
    appended — the column-generation growth step.  New paths are
    appended at the {e end} of the global index in list order, so every
    existing global path index is stable: flows and boards embed into
    the grown instance by zero-extension ({!Staleroute_util.Vec.extend}),
    and both incidences grow by appending.  Ungrown commodities share
    their [paths_of_commodity] arrays with [t].  The structural
    constants [max_path_length] and [ell_max] are updated; [beta] only
    depends on the latencies and is unchanged.  Every accessor of the
    result reads exactly what a from-scratch {!of_paths} build over the
    same path set would give (up to spare capacity in the raw CSR
    arrays).

    Sharing and cost.  The path→edge CSR and the edge→path transpose
    live in a store shared along a growth chain, with spare capacity;
    an instance with [n] paths reads only its own entries.  Extending
    the chain's newest instance claims the store by an atomic
    compare-and-set and appends in place: amortized
    O(new incidences · log + used edges + paths) work, with no
    allocation proportional to the edge count after the chain's first
    growth (which allocates one edge-indexed table for it).  Extending any other
    instance — a replay from a seed that has already grown, a second
    extension of one parent, or the loser of two concurrent extensions
    of one parent — copies its view into a new store first, an
    O(edges + incidences) step ({!shares_store} tells the two apart).
    Either way [t] and every other instance keep reading their own
    bits, so instances stay immutable values that any domain may read
    or extend at any time.

    Raises [Invalid_argument] on a commodity index out of range, a path
    that does not connect its commodity, or a duplicate (already active
    or repeated in [paths]).  [extend t ~paths:[]] is [t] itself. *)

val shares_store : t -> t -> bool
(** Whether two instances read one incidence store: true along a chain
    of in-place {!extend}s, false across a copy. *)

(** {1 Structure} *)

val graph : t -> Digraph.t
val latency : t -> int -> Staleroute_latency.Latency.t
(** Latency function of an edge id. *)

val latencies : t -> Staleroute_latency.Latency.t array
(** The latency function of every edge, by edge id — what the batch
    entries of {!Staleroute_latency.Latency} read (shared array — do not
    mutate). *)

val commodity_count : t -> int
val commodity : t -> int -> Commodity.t
val path_count : t -> int
(** Size of the global path index, [|P|]. *)

val path : t -> int -> Path.t
(** Path by global index. *)

val path_edges : t -> int -> int array
(** Edge ids of a path: [Path.edge_id_array (path t i)] (shared array —
    do not mutate). *)

val commodity_of_path : t -> int -> int
val paths_of_commodity : t -> int -> int array
(** Global indices of the commodity's paths (shared array — do not
    mutate). *)

val local_index_of_path : t -> int -> int
(** Position of a global path index within its commodity's
    [paths_of_commodity] array — the precomputed inverse of that table,
    so rate computations never scan for it. *)

val csr_offsets : t -> int array
(** CSR path→edge incidence, offsets: the edges of path [p] occupy
    [csr_edges.(csr_offsets.(p)) .. csr_edges.(csr_offsets.(p+1) - 1)].
    Only the first [path_count + 1] entries are this instance's; a grown
    instance's array may be longer (spare capacity shared with newer
    instances of its chain).  Shared array — do not mutate. *)

val csr_edges : t -> int array
(** CSR path→edge incidence, concatenated edge ids: the first
    [csr_offsets.(path_count)] entries are this instance's (spare
    capacity follows on a grown instance).  Shared array — do not
    mutate. *)

(** {2 The transposed (edge→path) incidence}

    Row [e] lists the global indices of the paths traversing edge [e]
    in {e ascending} order.  Its layout (a root segment built with the
    store, plus an append-only continuation once the row grows) stays
    inside this module: the batch entries below are the only readers,
    and read exactly the rows a from-scratch {!of_paths} would build. *)

val row_sums_into :
  t -> Staleroute_util.Vec.t -> edges:int array -> count:int ->
  float array -> unit
(** [row_sums_into t f ~edges ~count dst] sets [dst.(e)] to the sum of
    [f] over row [e], from [0.] in ascending path index, skipping zero
    entries, for the first [count] ids of [edges]; it allocates nothing.
    This is the walk behind [Flow.edge_flows_into], the one load gather
    — call that.  Raises [Invalid_argument] when [f] is not over the
    path index. *)

val collect_edge_paths :
  t -> edges:int array -> count:int -> mark:bool array -> into:int array ->
  int
(** [collect_edge_paths t ~edges ~count ~mark ~into] visits the rows of
    the first [count] ids of [edges] in that order, each row ascending,
    and writes every visited path [p] with [mark.(p) = false] to [into]
    from position [0], setting [mark.(p)]; it returns how many it
    wrote and allocates nothing.  The caller clears the marks.  With
    every mark false and [into] one slot per path it cannot overflow.
    Raises [Invalid_argument] when [mark] has fewer cells than paths. *)

val edge_paths : t -> int -> int array
(** Row [e] of the transpose as a fresh array: the paths traversing
    edge [e], ascending.  Allocates; for tests and cold paths. *)

val used_edges : t -> int array
(** The used-edge index: the ids of the edges some active path uses —
    the edges with a non-empty transpose row — in ascending order.  Only
    these edges can carry load, so per-phase sums over edge flows (Φ,
    the virtual gain, the phase ledger's gather) loop over this index,
    not over all edges: an unused edge sits at load 0, where every
    latency's integral is ±0 and its virtual-gain term is ±0, so
    skipping it cannot change a sum that starts at [+0.].  Built in the
    transpose's counting pass; {!extend} merges the newly used edges in,
    an O(used edges) step only when some edge is new.  Shared array —
    do not mutate. *)

val demand : t -> int -> float
(** Demand of a commodity. *)

(** {1 The paper's constants} *)

val max_path_length : t -> int
(** [D]: maximum number of edges on any enumerated path. *)

val beta : t -> float
(** [β]: bound on the slope of every edge latency on [0,1]. *)

val ell_max : t -> float
(** [ℓ_max]: upper bound on the latency of any path. *)

val max_paths_in_commodity : t -> int
(** [max_i |P_i|], the factor appearing in Theorem 6. *)

val pp : Format.formatter -> t -> unit
