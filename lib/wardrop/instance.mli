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
    existing global path index is stable: flows and boards over [t]
    embed into the grown instance by zero-extension
    ({!Staleroute_util.Vec.extend}), and the CSR incidence grows by
    appending rows.  Ungrown commodities share their
    [paths_of_commodity] arrays with [t] (boards and instances are
    immutable, so growth copies only what it touches).  The structural
    constants [max_path_length] and [ell_max] are updated; [beta] only
    depends on the latencies and is unchanged.  The edge→path transpose
    and the {!used_edges} index are not rebuilt: the new columns'
    incidences, sorted by (edge, path), are merged into [t]'s arrays,
    which gives exactly the arrays a from-scratch {!of_paths} build
    over the same path set would.  Its cost is one integer pass over
    the edge offsets plus block copies of the incidences, not a
    counting sort over all of them.  Raises
    [Invalid_argument] on a commodity index out of range, a path that
    does not connect its commodity, or a duplicate (already active or
    repeated in [paths]).  [extend t ~paths:[]] is [t] itself. *)

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
    Length [path_count + 1]; shared array — do not mutate. *)

val csr_edges : t -> int array
(** CSR path→edge incidence, concatenated edge ids (shared array — do
    not mutate). *)

val edge_csr_offsets : t -> int array
(** Transposed (edge→path) CSR incidence, offsets: the paths traversing
    edge [e] occupy
    [edge_csr_paths.(edge_csr_offsets.(e)) ..
     edge_csr_paths.(edge_csr_offsets.(e+1) - 1)].  Length
    [edge_count + 1]; shared array — do not mutate. *)

val edge_csr_paths : t -> int array
(** Transposed CSR incidence, concatenated global path indices.  Each
    edge's row is sorted in {e ascending} path order, the order in
    which [Flow.edge_flows_into], the one load gather, sums it.
    {!extend} preserves every old row as a prefix (new paths carry the
    largest indices).  Shared array — do not mutate. *)

val used_edges : t -> int array
(** The used-edge index: the ids of the edges some active path uses —
    the edges with a non-empty {!edge_csr_offsets} row — in ascending
    order.  Only these edges can carry load, so per-phase sums over
    edge flows (Φ, the virtual gain, the phase ledger's gather) loop
    over this index, not over all edges: an unused edge sits at load 0,
    where every latency's integral is ±0 and its virtual-gain term is
    ±0, so skipping it cannot change a sum that starts at [+0.].  Built
    in the transpose's counting pass; {!extend} merges the newly used
    edges in.  Shared array — do not mutate. *)

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
