module Vec = Staleroute_util.Vec
module Rng = Staleroute_util.Rng
module Latency = Staleroute_latency.Latency

type t = Vec.t

let uniform inst =
  let f = Vec.create (Instance.path_count inst) 0. in
  for ci = 0 to Instance.commodity_count inst - 1 do
    let ps = Instance.paths_of_commodity inst ci in
    let share = Instance.demand inst ci /. float_of_int (Array.length ps) in
    Array.iter (fun p -> Vec.set f p share) ps
  done;
  f

let concentrated inst ~on =
  let f = Vec.create (Instance.path_count inst) 0. in
  for ci = 0 to Instance.commodity_count inst - 1 do
    let ps = Instance.paths_of_commodity inst ci in
    let j = on ci in
    if j < 0 || j >= Array.length ps then
      invalid_arg "Flow.concentrated: path choice out of range";
    Vec.set f ps.(j) (Instance.demand inst ci)
  done;
  f

let random inst rng =
  let f = Vec.create (Instance.path_count inst) 0. in
  for ci = 0 to Instance.commodity_count inst - 1 do
    let ps = Instance.paths_of_commodity inst ci in
    let weights = Array.map (fun _ -> Rng.exponential rng ~rate:1.) ps in
    let total = Staleroute_util.Numerics.kahan_sum weights in
    let r = Instance.demand inst ci in
    Array.iteri (fun j p -> Vec.set f p (r *. weights.(j) /. total)) ps
  done;
  f

let is_feasible ?(tol = 1e-7) inst f =
  Vec.dim f = Instance.path_count inst
  && Vec.for_all (fun x -> x >= -.tol) f
  &&
  let ok = ref true in
  for ci = 0 to Instance.commodity_count inst - 1 do
    let mass =
      Array.fold_left
        (fun acc p -> acc +. Vec.get f p)
        0.
        (Instance.paths_of_commodity inst ci)
    in
    if Float.abs (mass -. Instance.demand inst ci) > tol then ok := false
  done;
  !ok

let project_ inst f =
  for ci = 0 to Instance.commodity_count inst - 1 do
    let ps = Instance.paths_of_commodity inst ci in
    let n = Array.length ps in
    for j = 0 to n - 1 do
      let p = Array.unsafe_get ps j in
      Vec.unsafe_set f p (Float.max 0. (Vec.unsafe_get f p))
    done;
    (* Accumulate with a local float ref, not a fold (whose closure
       boxes the accumulator) and not a recursive helper (float
       arguments are boxed across calls on non-flambda compilers): this
       form stays unboxed, keeping the hot path allocation-free. *)
    let acc = ref 0. in
    for j = 0 to n - 1 do
      acc := !acc +. Vec.unsafe_get f (Array.unsafe_get ps j)
    done;
    let m = !acc in
    if m <= 0. then
      invalid_arg "Flow.project: commodity mass vanished entirely";
    let scale = Instance.demand inst ci /. m in
    for j = 0 to n - 1 do
      let p = Array.unsafe_get ps j in
      Vec.unsafe_set f p (Vec.unsafe_get f p *. scale)
    done
  done

(* The API-boundary variant validates: raw vectors handed in from
   outside must be finite, or NaN silently poisons every later
   projection (NaN survives [Float.max] and the rescale).  The in-place
   [project_] above stays unchecked — it is the integrator hot path and
   must not branch per entry. *)
let project inst f =
  Vec.iteri
    (fun p x ->
      if not (Float.is_finite x) then
        invalid_arg
          (Printf.sprintf "Flow.project: non-finite entry %g on path %d" x p))
    f;
  let g = Vec.copy f in
  project_ inst g;
  g

(* Evacuation under an edge outage (DESIGN.md §14).  Like [project_]
   this is a per-commodity renormalisation, but the support shrinks to
   the surviving paths: dead paths are zeroed and the commodity's
   demand is re-spread over the alive ones — proportionally when they
   still carry mass, uniformly when all mass sat on dead paths.  A
   commodity whose every path is dead is left untouched (there is
   nowhere to move the mass) and reported to the caller, whose guard
   decides. *)
let evacuate inst ~dead f =
  let partitioned = ref [] in
  for ci = Instance.commodity_count inst - 1 downto 0 do
    let ps = Instance.paths_of_commodity inst ci in
    let n = Array.length ps in
    let dead_mass = ref 0. in
    let alive = ref 0 in
    for j = 0 to n - 1 do
      let p = Array.unsafe_get ps j in
      if dead p then dead_mass := !dead_mass +. Vec.get f p else incr alive
    done;
    if !alive = 0 then partitioned := ci :: !partitioned
    else if !dead_mass <> 0. then begin
      let alive_mass = ref 0. in
      for j = 0 to n - 1 do
        let p = Array.unsafe_get ps j in
        if dead p then Vec.set f p 0.
        else alive_mass := !alive_mass +. Vec.get f p
      done;
      let r = Instance.demand inst ci in
      if !alive_mass > 0. then begin
        let scale = r /. !alive_mass in
        for j = 0 to n - 1 do
          let p = Array.unsafe_get ps j in
          if not (dead p) then Vec.set f p (Vec.get f p *. scale)
        done
      end
      else begin
        let share = r /. float_of_int !alive in
        for j = 0 to n - 1 do
          let p = Array.unsafe_get ps j in
          if not (dead p) then Vec.set f p share
        done
      end
    end
  done;
  !partitioned

(* The one load gather: the transpose walk lives with the transpose. *)
let edge_flows_into = Instance.row_sums_into

let edge_flows inst f =
  let fe = Array.make (Staleroute_graph.Digraph.edge_count (Instance.graph inst)) 0. in
  let used = Instance.used_edges inst in
  edge_flows_into inst f ~edges:used ~count:(Array.length used) fe;
  fe

let edge_latencies inst fe =
  let m = Array.length fe in
  let el = Array.make m 0. in
  Latency.eval_into (Instance.latencies inst) ~edges:(Array.init m Fun.id)
    ~count:m fe el;
  el

let[@inline] path_sum ~offsets ~edges edge_latencies p =
  let acc = ref 0. in
  for k = offsets.(p) to offsets.(p + 1) - 1 do
    acc := !acc +. edge_latencies.(edges.(k))
  done;
  !acc

let path_latency inst ~edge_latencies p =
  path_sum ~offsets:(Instance.csr_offsets inst) ~edges:(Instance.csr_edges inst)
    edge_latencies p

let path_latencies_into inst ~edge_latencies ~paths ~count dst =
  let offsets = Instance.csr_offsets inst and edges = Instance.csr_edges inst in
  for i = 0 to count - 1 do
    let p = paths.(i) in
    dst.(p) <- path_sum ~offsets ~edges edge_latencies p
  done

let path_latencies inst f =
  let el = edge_latencies inst (edge_flows inst f) in
  Array.init (Instance.path_count inst) (fun p ->
      path_latency inst ~edge_latencies:el p)

let commodity_min_latency inst ~path_latencies ci =
  Array.fold_left
    (fun acc p -> Float.min acc path_latencies.(p))
    infinity
    (Instance.paths_of_commodity inst ci)

let commodity_avg_latency inst f ~path_latencies ci =
  let r = Instance.demand inst ci in
  Array.fold_left
    (fun acc p -> acc +. (Vec.get f p /. r *. path_latencies.(p)))
    0.
    (Instance.paths_of_commodity inst ci)

let overall_avg_latency inst f ~path_latencies =
  let acc = ref 0. in
  for p = 0 to Instance.path_count inst - 1 do
    acc := !acc +. (Vec.get f p *. path_latencies.(p))
  done;
  !acc

let pp inst ppf f =
  Format.fprintf ppf "@[<v>";
  for p = 0 to Instance.path_count inst - 1 do
    Format.fprintf ppf "%a: %.6g@," Staleroute_graph.Path.pp
      (Instance.path inst p) (Vec.get f p)
  done;
  Format.fprintf ppf "@]"
