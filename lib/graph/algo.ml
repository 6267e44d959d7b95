let bfs next g start =
  let seen = Array.make (Digraph.node_count g) false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w queue
        end)
      (next g v)
  done;
  seen

let reachable_from g v =
  bfs (fun g v -> List.map (fun e -> e.Digraph.dst) (Digraph.out_edges g v)) g v

let co_reachable_to g v =
  bfs (fun g v -> List.map (fun e -> e.Digraph.src) (Digraph.in_edges g v)) g v

let on_some_path g ~src ~dst =
  let fwd = reachable_from g src and bwd = co_reachable_to g dst in
  Array.init (Digraph.node_count g) (fun v -> fwd.(v) && bwd.(v))

let topological_order g =
  let n = Digraph.node_count g in
  let indegree = Array.make n 0 in
  Digraph.fold_edges
    (fun e () -> indegree.(e.Digraph.dst) <- indegree.(e.Digraph.dst) + 1)
    g ();
  (* A min-heap keyed by node id gives a deterministic order. *)
  let frontier = Staleroute_util.Heap.create () in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then
      Staleroute_util.Heap.push frontier ~priority:(float_of_int v) v
  done;
  let rec drain acc count =
    match Staleroute_util.Heap.pop frontier with
    | None -> if count = n then Some (List.rev acc) else None
    | Some (_, v) ->
        List.iter
          (fun e ->
            let w = e.Digraph.dst in
            indegree.(w) <- indegree.(w) - 1;
            if indegree.(w) = 0 then
              Staleroute_util.Heap.push frontier ~priority:(float_of_int w) w)
          (Digraph.out_edges g v);
        drain (v :: acc) (count + 1)
  in
  drain [] 0

let is_acyclic g = Digraph.dag g <> None

let strongly_connected_components g =
  (* Iterative Tarjan to survive deep graphs without stack overflow. *)
  let n = Digraph.node_count g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let visit root =
    (* Each frame: node and the remaining out-neighbours to explore. *)
    let frames = ref [ (root, ref (Digraph.out_edges g root)) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, remaining) :: parents -> (
          match !remaining with
          | e :: rest ->
              remaining := rest;
              let w = e.Digraph.dst in
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                frames := (w, ref (Digraph.out_edges g w)) :: !frames
              end
              else if on_stack.(w) then
                lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
              frames := parents;
              (match parents with
              | (parent, _) :: _ ->
                  lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
              | [] -> ());
              if lowlink.(v) = index.(v) then begin
                (* Pop the component off the stack. *)
                let rec pop acc =
                  match !stack with
                  | [] -> acc
                  | w :: rest ->
                      stack := rest;
                      on_stack.(w) <- false;
                      if w = v then w :: acc else pop (w :: acc)
                in
                components := pop [] :: !components
              end)
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  List.rev !components
