let negative () = invalid_arg "Shortest_path: negative weight"

(* Everything but the weights' signs, which the pass checks as it goes;
   on a bad endpoint the signs are checked first, so a negative weight
   still wins over a bad endpoint. *)
let check g ~weights ~src ~dst =
  if Array.length weights <> Digraph.edge_count g then
    invalid_arg "Shortest_path: weight vector length mismatch";
  let n = Digraph.node_count g in
  if src < 0 || src >= n || dst < 0 || dst >= n then begin
    Array.iter (fun w -> if w < 0. then negative ()) weights;
    invalid_arg
      (if src < 0 || src >= n then "Shortest_path: src out of range"
       else "Shortest_path: dst out of range")
  end

type pass = {
  mutable dist : float array;
  mutable pred : int array;  (* edge id into the node, -1 at none *)
  mutable tail : int array;  (* that edge's tail *)
  mutable tied : Bytes.t;  (* two tails at one bitwise distance offer the same dist *)
}

(* One pass's node arrays per domain, reused by every call on it: a
   call reads them only before it returns. *)
let scratch =
  Domain.DLS.new_key (fun () ->
      { dist = [||]; pred = [||]; tail = [||]; tied = Bytes.empty })

(* One relaxation in topological order.  A node's distance is final
   before its out-edges are relaxed, and every candidate is
   [d(u) +. w] exactly as Dijkstra forms it, so the distances are
   Dijkstra's bits.  The predecessor follows Dijkstra's settling order:
   a strict improvement wins; at a bitwise-equal distance the tail
   Dijkstra settles first (strictly smaller distance) wins; from one
   tail the lower edge id wins, which is the slot order.  Two distinct
   tails at one distance depend on heap order: marked [tied].

   Every slot is visited once, an unreachable node's too, so the pass
   also checks every weight's sign.  Only [dist] needs resetting: a
   node's [pred], [tail] and [tied] are written when it is first
   reached, before anything reads them. *)
let relax (d : Digraph.dag) ~weights ~src =
  let n = Array.length d.order in
  let r = Domain.DLS.get scratch in
  if Array.length r.dist < n then begin
    r.dist <- Array.make n infinity;
    r.pred <- Array.make n (-1);
    r.tail <- Array.make n (-1);
    r.tied <- Bytes.make n '\000'
  end
  else Array.fill r.dist 0 n infinity;
  let dist = r.dist and pred = r.pred and tail = r.tail and tied = r.tied in
  dist.(src) <- 0.;
  for i = 0 to n - 1 do
    let u = d.order.(i) in
    let du = dist.(u) in
    if du < infinity then
      for k = d.out_offsets.(u) to d.out_offsets.(u + 1) - 1 do
        let v = d.out_heads.(k) in
        let w = weights.(d.out_edges.(k)) in
        if w < 0. then negative ();
        let nd = du +. w in
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
    else
      for k = d.out_offsets.(u) to d.out_offsets.(u + 1) - 1 do
        if weights.(d.out_edges.(k)) < 0. then negative ()
      done
  done;
  r

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
