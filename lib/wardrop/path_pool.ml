open Staleroute_graph
module Latency = Staleroute_latency.Latency
module Vec = Staleroute_util.Vec

type seed = Shortest | Full | Paths of Path.t list array

type t = {
  graph : Digraph.t;
  latencies : Latency.t array;
  commodities : Commodity.t array;
  tolerance : float;
  seed_instance : Instance.t;
  (* Negative-pricing memo for [grow]: the last (active instance,
     posted latencies) that priced to "no growth".  Pricing is a pure
     function of exactly those two, so re-pricing the same instance
     under bit-identical latencies can only return the same empty
     admission list — skipping the pricing sweep is bitwise-inert.
     Holds its own copy of the latency array (callers reuse buffers);
     cleared whenever growth is admitted. *)
  mutable no_growth : (Instance.t * float array) option;
}

type growth = {
  commodity : int;
  path : Path.t;
  cost : float;
  incumbent : float;
}

let create ?(tolerance = 1e-9) ?(seed = Shortest) ?max_paths_per_commodity
    ~graph ~latencies ~commodities () =
  if not (Float.is_finite tolerance) || tolerance < 0. then
    invalid_arg "Path_pool.create: tolerance must be finite and >= 0";
  let seed_instance =
    match seed with
    | Full ->
        Instance.create ?max_paths_per_commodity ~graph ~latencies
          ~commodities ()
    | Paths paths -> Instance.of_paths ~graph ~latencies ~commodities ~paths ()
    | Shortest ->
        (* The seed column of each commodity: its best response at zero
           flow, i.e. the shortest path under the empty-network
           latencies. *)
        let weights = Array.map (fun l -> Latency.eval l 0.) latencies in
        let paths =
          Array.map
            (fun c ->
              match
                Shortest_path.find graph ~weights ~src:c.Commodity.src
                  ~dst:c.Commodity.dst
              with
              | Some (p, _) -> [ p ]
              | None -> invalid_arg "Path_pool.create: commodity has no path")
            (Array.of_list commodities)
        in
        Instance.of_paths ~graph ~latencies ~commodities ~paths ()
  in
  {
    graph;
    latencies;
    commodities = Array.of_list commodities;
    tolerance;
    seed_instance;
    no_growth = None;
  }

let instance t = t.seed_instance
let tolerance t = t.tolerance

let check_edge_latencies t edge_latencies =
  if Array.length edge_latencies <> Digraph.edge_count t.graph then
    invalid_arg "Path_pool: one posted latency per edge required"

(* Pricing is a pure function of (active set, posted edge latencies,
   tolerance): no RNG, no mutable pool state, no dependence on how many
   domains run alongside — so same-seed runs grow identically at any
   [-j], and growth replays bit-for-bit on checkpoint resume.  On a DAG
   the best response is one topological pass, Dijkstra's path and bits
   by construction ([Shortest_path]). *)
let price t inst ~edge_latencies =
  check_edge_latencies t edge_latencies;
  let out = ref [] in
  for ci = Array.length t.commodities - 1 downto 0 do
    let c = t.commodities.(ci) in
    match
      Shortest_path.find t.graph ~weights:edge_latencies
        ~src:c.Commodity.src ~dst:c.Commodity.dst
    with
    | None -> ()
    | Some (path, cost) ->
        (* The cheapest ACTIVE alternative under the same posting.
           The pricing accumulates its cost in path order, the same
           left-to-right order [Flow.path_latency] sums in, so an
           already-active optimum prices out bit-identically and can
           never undercut itself. *)
        let incumbent =
          Array.fold_left
            (fun acc p ->
              Float.min acc (Flow.path_latency inst ~edge_latencies p))
            infinity
            (Instance.paths_of_commodity inst ci)
        in
        if cost < incumbent -. t.tolerance then begin
          let duplicate =
            Array.exists
              (fun p -> Path.equal path (Instance.path inst p))
              (Instance.paths_of_commodity inst ci)
          in
          if not duplicate then
            out := { commodity = ci; path; cost; incumbent } :: !out
        end
  done;
  !out

let same_bits a b =
  Array.length a = Array.length b
  &&
  let n = Array.length a in
  let i = ref 0 in
  let ok = ref true in
  while !ok && !i < n do
    if Int64.bits_of_float a.(!i) <> Int64.bits_of_float b.(!i) then
      ok := false;
    incr i
  done;
  !ok

let grow t inst ~edge_latencies =
  check_edge_latencies t edge_latencies;
  let memo_hit =
    match t.no_growth with
    | Some (mi, ml) -> mi == inst && same_bits ml edge_latencies
    | None -> false
  in
  if memo_hit then None
  else
    match price t inst ~edge_latencies with
    | [] ->
        t.no_growth <- Some (inst, Array.copy edge_latencies);
        None
    | adds ->
        t.no_growth <- None;
        let inst' =
          Instance.extend inst
            ~paths:(List.map (fun g -> (g.commodity, g.path)) adds)
        in
        Some (inst', adds)

let replay t ~grown =
  Instance.extend t.seed_instance
    ~paths:
      (List.map
         (fun (ci, edges) ->
           (ci, Path.of_edges t.graph (Array.to_list edges)))
         grown)

let unsatisfied_volume t inst f ~delta =
  let edge_latencies = Flow.edge_latencies inst (Flow.edge_flows inst f) in
  let vol = ref 0. in
  for ci = 0 to Array.length t.commodities - 1 do
    let c = t.commodities.(ci) in
    let lmin =
      Shortest_path.distance t.graph ~weights:edge_latencies
        ~src:c.Commodity.src ~dst:c.Commodity.dst
    in
    Array.iter
      (fun p ->
        if Flow.path_latency inst ~edge_latencies p > lmin +. delta then
          vol := !vol +. Vec.get f p)
      (Instance.paths_of_commodity inst ci)
  done;
  !vol
