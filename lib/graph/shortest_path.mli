(** Single-pair shortest paths for pricing: one relaxation pass in
    topological order on an acyclic graph, {!Dijkstra} otherwise.

    The pass is a drop-in for {!Dijkstra.shortest_path}: both form each
    candidate as [d(u) +. w] along the path in path order, so the
    distances are bitwise Dijkstra's.  The path is Dijkstra's too,
    under its settling order:
    - a strict improvement wins;
    - at a bitwise-equal distance, the tail with the smaller distance
      wins (Dijkstra settles it first);
    - from the same tail, the lower edge id wins;
    - when two distinct tails at bitwise-equal distances offer the
      same distance to a node on the path, the winner depends on heap
      order, and {!find} falls back to Dijkstra.

    The forward-star arrays and the order are the graph's cached
    {!Digraph.dag}, built once per graph.  Weights follow Dijkstra's
    rules: one per edge, non-negative, [infinity] allowed (a dead
    edge); anything else raises [Invalid_argument].  The pass checks
    each weight as it visits its slot, and it reuses one set of
    per-node arrays per domain, so a call allocates only its answer and
    calls from several domains do not share scratch. *)

type verdict =
  | Decided of (Path.t * float) option
      (** the pass's answer: Dijkstra's path and distance, [None] when
          [dst] is unreachable or equal to [src] *)
  | Cyclic  (** the graph has a cycle; the pass does not apply *)
  | Tied  (** an exact tie between two tails on the path *)

val dag_path :
  Digraph.t -> weights:float array -> src:Digraph.node -> dst:Digraph.node ->
  verdict
(** The topological pass alone, without the fallback. *)

val find :
  Digraph.t -> weights:float array -> src:Digraph.node -> dst:Digraph.node ->
  (Path.t * float) option
(** {!dag_path}, falling back to {!Dijkstra.shortest_path} on [Cyclic]
    and [Tied]: always the same path and bits as Dijkstra. *)

val distance :
  Digraph.t -> weights:float array -> src:Digraph.node -> dst:Digraph.node ->
  float
(** Dijkstra's distance from [src] to [dst] ([infinity] when
    unreachable), by the pass on an acyclic graph.  Distances never
    tie-break, so no fallback is needed. *)
