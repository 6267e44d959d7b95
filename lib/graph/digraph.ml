type node = int

type edge = { id : int; src : node; dst : node }

type dag = {
  order : node array;
  out_offsets : int array;
  out_edges : int array;
  out_heads : node array;
}

(* The acyclic view is built on first use and cached in an atomic, so a
   graph shared across domains publishes a fully built value; two
   racing builders compute the same arrays and either write wins. *)
type shape = Unknown | Cyclic | Acyclic of dag

type t = {
  node_count : int;
  edge_array : edge array;
  out_adj : edge list array;
  in_adj : edge list array;
  shape : shape Atomic.t;
}

let create ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Digraph.create: need at least one node";
  let edge_array =
    Array.of_list
      (List.mapi
         (fun id (src, dst) ->
           if src < 0 || src >= nodes || dst < 0 || dst >= nodes then
             invalid_arg "Digraph.create: endpoint out of range";
           if src = dst then invalid_arg "Digraph.create: self-loop";
           { id; src; dst })
         edges)
  in
  let out_adj = Array.make nodes [] and in_adj = Array.make nodes [] in
  (* Iterate in reverse so adjacency lists end up in increasing id order. *)
  for i = Array.length edge_array - 1 downto 0 do
    let e = edge_array.(i) in
    out_adj.(e.src) <- e :: out_adj.(e.src);
    in_adj.(e.dst) <- e :: in_adj.(e.dst)
  done;
  {
    node_count = nodes;
    edge_array;
    out_adj;
    in_adj;
    shape = Atomic.make Unknown;
  }

let node_count t = t.node_count
let edge_count t = Array.length t.edge_array

let edge t id =
  if id < 0 || id >= Array.length t.edge_array then
    invalid_arg "Digraph.edge: id out of range";
  t.edge_array.(id)

let edges t = Array.copy t.edge_array

let check_node t v =
  if v < 0 || v >= t.node_count then
    invalid_arg "Digraph: node out of range"

let out_edges t v =
  check_node t v;
  t.out_adj.(v)

let in_edges t v =
  check_node t v;
  t.in_adj.(v)

let out_degree t v = List.length (out_edges t v)

let mem_edge t ~src ~dst =
  check_node t src;
  check_node t dst;
  List.exists (fun e -> e.dst = dst) t.out_adj.(src)

(* Forward star by a counting sort over edge ids (stable, so each
   node's slots stay in ascending id), then Kahn's algorithm with the
   order array itself as the FIFO queue.  O(V + E), arrays only. *)
let build_shape t =
  let n = t.node_count and m = Array.length t.edge_array in
  let out_offsets = Array.make (n + 1) 0 in
  Array.iter
    (fun e -> out_offsets.(e.src + 1) <- out_offsets.(e.src + 1) + 1)
    t.edge_array;
  for v = 1 to n do
    out_offsets.(v) <- out_offsets.(v) + out_offsets.(v - 1)
  done;
  let fill = Array.sub out_offsets 0 n in
  let out_edges = Array.make m 0 and out_heads = Array.make m 0 in
  let indegree = Array.make n 0 in
  Array.iter
    (fun e ->
      let k = fill.(e.src) in
      fill.(e.src) <- k + 1;
      out_edges.(k) <- e.id;
      out_heads.(k) <- e.dst;
      indegree.(e.dst) <- indegree.(e.dst) + 1)
    t.edge_array;
  let order = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for k = out_offsets.(u) to out_offsets.(u + 1) - 1 do
      let w = out_heads.(k) in
      indegree.(w) <- indegree.(w) - 1;
      if indegree.(w) = 0 then begin
        order.(!tail) <- w;
        incr tail
      end
    done
  done;
  if !tail < n then Cyclic
  else Acyclic { order; out_offsets; out_edges; out_heads }

let dag t =
  let shape =
    match Atomic.get t.shape with
    | Unknown ->
        let s = build_shape t in
        Atomic.set t.shape s;
        s
    | s -> s
  in
  match shape with Acyclic d -> Some d | Cyclic | Unknown -> None

let fold_edges f t init = Array.fold_left (fun acc e -> f e acc) init t.edge_array

let pp ppf t =
  Format.fprintf ppf "digraph(%d nodes,@ %d edges:@ %a)" t.node_count
    (edge_count t)
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf e -> Format.fprintf ppf "%d:%d->%d" e.id e.src e.dst))
    t.edge_array
