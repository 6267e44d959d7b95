let check g ~weights ~src ~dst =
  if Array.length weights <> Digraph.edge_count g then
    invalid_arg "Shortest_path: weight vector length mismatch";
  for e = 0 to Array.length weights - 1 do
    if weights.(e) < 0. then invalid_arg "Shortest_path: negative weight"
  done;
  let n = Digraph.node_count g in
  if src < 0 || src >= n then invalid_arg "Shortest_path: src out of range";
  if dst < 0 || dst >= n then invalid_arg "Shortest_path: dst out of range"

type pass = {
  dist : float array;
  pred : int array;  (* edge id into the node, -1 at none *)
  tail : int array;  (* that edge's tail *)
  tied : Bytes.t;  (* two tails at one bitwise distance offer the same dist *)
}

(* One relaxation in topological order.  A node's distance is final
   before its out-edges are relaxed, and every candidate is
   [d(u) +. w] exactly as Dijkstra forms it, so the distances are
   Dijkstra's bits.  The predecessor follows Dijkstra's settling order:
   a strict improvement wins; at a bitwise-equal distance the tail
   Dijkstra settles first (strictly smaller distance) wins; from one
   tail the lower edge id wins, which is the slot order.  Two distinct
   tails at one distance depend on heap order: marked [tied]. *)
let relax (d : Digraph.dag) ~weights ~src =
  let n = Array.length d.order in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) and tail = Array.make n (-1) in
  let tied = Bytes.make n '\000' in
  dist.(src) <- 0.;
  for i = 0 to n - 1 do
    let u = d.order.(i) in
    let du = dist.(u) in
    if du < infinity then
      for k = d.out_offsets.(u) to d.out_offsets.(u + 1) - 1 do
        let v = d.out_heads.(k) in
        let nd = du +. weights.(d.out_edges.(k)) in
        let dv = dist.(v) in
        if nd < dv then begin
          dist.(v) <- nd;
          pred.(v) <- d.out_edges.(k);
          tail.(v) <- u;
          Bytes.set tied v '\000'
        end
        else if nd = dv && nd < infinity then begin
          let dt = dist.(tail.(v)) in
          if du < dt then begin
            pred.(v) <- d.out_edges.(k);
            tail.(v) <- u;
            Bytes.set tied v '\000'
          end
          else if du = dt && u <> tail.(v) then Bytes.set tied v '\001'
        end
      done
  done;
  { dist; pred; tail; tied }

type verdict = Decided of (Path.t * float) option | Cyclic | Tied

let dag_path g ~weights ~src ~dst =
  match Digraph.dag g with
  | None -> Cyclic
  | Some d ->
      check g ~weights ~src ~dst;
      let r = relax d ~weights ~src in
      if dst = src || r.dist.(dst) = infinity then Decided None
      else
        let rec walk v acc =
          if v = src then Decided (Some (Path.of_edges g acc, r.dist.(dst)))
          else if Bytes.get r.tied v <> '\000' then Tied
          else walk r.tail.(v) (r.pred.(v) :: acc)
        in
        walk dst []

let find g ~weights ~src ~dst =
  match dag_path g ~weights ~src ~dst with
  | Decided found -> found
  | Cyclic | Tied -> Dijkstra.shortest_path g ~weights ~src ~dst

let distance g ~weights ~src ~dst =
  match Digraph.dag g with
  | None -> Dijkstra.distance (Dijkstra.run g ~weights ~src) dst
  | Some d ->
      check g ~weights ~src ~dst;
      (relax d ~weights ~src).dist.(dst)
