(** Feasible flow vectors over the global path index of an instance.

    A flow [f] assigns non-negative mass to every path such that the
    paths of commodity [i] carry exactly demand [r_i].  All latency
    observations of the model live here: edge loads [f_e], edge and path
    latencies, per-commodity average [L_i] and minimum latencies, and
    the overall average latency [L]. *)

type t = Staleroute_util.Vec.t
(** Indexed by the instance's global path index. *)

(** {1 Construction} *)

val uniform : Instance.t -> t
(** Every commodity splits its demand equally over its paths. *)

val concentrated : Instance.t -> on:(int -> int) -> t
(** [concentrated inst ~on] puts commodity [i]'s whole demand on its
    [on i]-th path (an index into [paths_of_commodity], checked). *)

val random : Instance.t -> Staleroute_util.Rng.t -> t
(** Uniformly random point of each commodity's simplex (symmetric
    Dirichlet via exponential spacings). *)

val is_feasible : ?tol:float -> Instance.t -> t -> bool
(** Non-negativity and demand satisfaction within [tol]
    (default [1e-7]). *)

val project : Instance.t -> t -> t
(** Clip negative entries to 0 and rescale each commodity to its demand
    — repairs the O(h^5) drift of a numerical integrator step.  Raises
    [Invalid_argument] if any entry is non-finite (this is the API
    boundary: NaN must not silently poison later projections) or if a
    commodity's mass has entirely vanished. *)

val project_ : Instance.t -> t -> unit
(** In-place {!project} {e without} the non-finite validation: same
    arithmetic, zero allocation, no per-entry branch — the variant the
    integrator hot path uses.  Numeric health of internal state is the
    job of [Staleroute_dynamics.Guard], not of this function. *)

val evacuate : Instance.t -> dead:(int -> bool) -> t -> int list
(** [evacuate inst ~dead f] moves flow off dead paths, in place: for
    each commodity, paths with [dead p = true] are zeroed and the
    demand is restored over the surviving paths — rescaled
    proportionally when they carry positive mass, spread uniformly when
    the entire commodity sat on dead paths.  A commodity with {e no}
    surviving path is left bit-untouched and its index is returned
    (ascending) for the caller's guard to judge; commodities with no
    mass on dead paths are also left bit-untouched (a zero-rate outage
    is bitwise inert).  The result is feasible whenever the input was,
    modulo the commodities returned. *)

(** {1 Observations} *)

val edge_flows_into :
  Instance.t -> t -> edges:int array -> count:int -> float array -> unit
(** [edge_flows_into inst f ~edges ~count dst] sets [dst.(e)] to the
    load [f_e = Σ_{P ∋ e} f_P] for the first [count] ids of [edges],
    allocating nothing.  This is the only load gather: [f_e] is summed
    from [0.] over the edge's transpose row ({!Instance.row_sums_into})
    in ascending path index, skipping zero flows, so every caller sees
    the same bits for the same edge.  Raises [Invalid_argument] if
    [f] is not over the instance's path index. *)

val edge_flows : Instance.t -> t -> float array
(** Edge loads [f_e = Σ_{P ∋ e} f_P], indexed by edge id:
    {!edge_flows_into} over {!Instance.used_edges}, [0.] elsewhere. *)

val edge_latencies : Instance.t -> float array -> float array
(** [edge_latencies inst fe] evaluates every edge latency at its load
    (through [Latency.eval_into]). *)

val path_latency : Instance.t -> edge_latencies:float array -> int -> float
(** Latency of one path given precomputed edge latencies. *)

val path_latencies_into :
  Instance.t ->
  edge_latencies:float array ->
  paths:int array ->
  count:int ->
  float array ->
  unit
(** [path_latencies_into inst ~edge_latencies ~paths ~count dst] sets
    [dst.(p) <- path_latency inst ~edge_latencies p] for the first
    [count] entries [p] of [paths], with the same bits and no
    allocation (a loop of {!path_latency} calls from another library
    boxes every result). *)

val path_latencies : Instance.t -> t -> float array
(** Latency of every path at flow [f] (fresh information). *)

val commodity_min_latency :
  Instance.t -> path_latencies:float array -> int -> float
(** [ℓ^i_min], the cheapest path latency of commodity [i]. *)

val commodity_avg_latency :
  Instance.t -> t -> path_latencies:float array -> int -> float
(** [L_i = Σ_{P∈P_i} (f_P / r_i) ℓ_P]. *)

val overall_avg_latency : Instance.t -> t -> path_latencies:float array -> float
(** [L = Σ_P f_P ℓ_P] (demands are normalised to 1). *)

val pp : Instance.t -> Format.formatter -> t -> unit
