(** Directed finite multigraphs.

    Nodes are dense integers [0 .. node_count - 1]; edges carry dense
    integer ids [0 .. edge_count - 1] and are directed.  Parallel edges
    and self-loops are representable (the Wardrop model of the paper is
    defined on multigraphs); self-loops are rejected because no simple
    path uses them. *)

type node = int

type edge = private { id : int; src : node; dst : node }

type t

val create : nodes:int -> edges:(node * node) list -> t
(** [create ~nodes ~edges] builds a graph with [nodes] vertices and the
    given directed edges, whose ids are assigned in list order.  Raises
    [Invalid_argument] on out-of-range endpoints, [nodes <= 0], or a
    self-loop. *)

val node_count : t -> int
val edge_count : t -> int

val edge : t -> int -> edge
(** Edge by id; raises [Invalid_argument] when out of range. *)

val edges : t -> edge array
(** All edges in id order.  The returned array is fresh. *)

val out_edges : t -> node -> edge list
(** Outgoing edges of a node, in increasing id order. *)

val in_edges : t -> node -> edge list

val out_degree : t -> node -> int
val mem_edge : t -> src:node -> dst:node -> bool
(** Whether at least one edge [src -> dst] exists. *)

(** A flat view of an acyclic graph, for one-pass relaxations. *)
type dag = private {
  order : node array;  (** every node, in a topological order *)
  out_offsets : int array;
      (** node [v]'s out-edges sit at slots
          [out_offsets.(v) .. out_offsets.(v+1) - 1]; length
          [node_count + 1] *)
  out_edges : int array;  (** edge id per slot, ascending within a node *)
  out_heads : node array;  (** head ([dst]) of the slot's edge *)
}

val dag : t -> dag option
(** The graph's acyclic view, or [None] when it has a directed cycle.
    Built on the first call in O(V + E) and cached on the graph, so
    every caller shares one copy; safe to call from several domains. *)

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a
val pp : Format.formatter -> t -> unit
