(* Reference Frank–Wolfe: the textbook path-space loop that
   [Frank_wolfe.minimize] replaced, kept verbatim as the oracle the edge
   space solver must match bit for bit.  Every objective and gradient
   evaluation is a fresh [Flow.t] and a fresh gather; nothing is cached.
   Test-only — the library keeps exactly one Frank–Wolfe loop. *)

open Staleroute_wardrop
module Vec = Staleroute_util.Vec
module Numerics = Staleroute_util.Numerics
module Latency = Staleroute_latency.Latency

let best_response_direction inst grad =
  let d = Vec.create (Instance.path_count inst) 0. in
  for ci = 0 to Instance.commodity_count inst - 1 do
    let ps = Instance.paths_of_commodity inst ci in
    let best = ref ps.(0) in
    Array.iter (fun p -> if grad.(p) < grad.(!best) then best := p) ps;
    Vec.set d !best (Instance.demand inst ci)
  done;
  d

(* Pairwise direction: within each commodity, move the mass sitting on
   the worst used path towards the best path. *)
let pairwise_direction inst grad f =
  let d = Vec.create (Instance.path_count inst) 0. in
  for ci = 0 to Instance.commodity_count inst - 1 do
    let ps = Instance.paths_of_commodity inst ci in
    let best = ref ps.(0) and worst = ref (-1) in
    Array.iter
      (fun p ->
        if grad.(p) < grad.(!best) then best := p;
        if Vec.get f p > 0. && (!worst < 0 || grad.(p) > grad.(!worst)) then
          worst := p)
      ps;
    if !worst >= 0 && !worst <> !best then begin
      Vec.set d !best (Vec.get d !best +. Vec.get f !worst);
      Vec.set d !worst (Vec.get d !worst -. Vec.get f !worst)
    end
  done;
  d

let minimize ?(max_iter = 10_000) ?(tol = 1e-8) ~objective ~gradient inst =
  let f = ref (Flow.uniform inst) in
  let rec loop iter =
    let grad = gradient !f in
    let br = best_response_direction inst grad in
    let gap = Vec.dot (Vec.of_array grad) (Vec.sub !f br) in
    if gap <= tol || iter >= max_iter then
      {
        Frank_wolfe.flow = !f;
        objective = objective !f;
        gap;
        iterations = iter;
      }
    else begin
      let d = pairwise_direction inst grad !f in
      let line_pair gamma =
        let g = Vec.copy !f in
        Vec.axpy ~alpha:gamma ~x:d ~y:g;
        objective g
      in
      let line_classic gamma = objective (Vec.lerp gamma !f br) in
      let gamma_pair =
        Numerics.golden_section_min ~tol:1e-12 line_pair 0. 1.
      in
      let gamma_classic =
        Numerics.golden_section_min ~tol:1e-12 line_classic 0. 1.
      in
      let here = objective !f in
      let value_pair = line_pair gamma_pair in
      let value_classic = line_classic gamma_classic in
      if Float.min value_pair value_classic < here then begin
        if value_pair <= value_classic then begin
          let g = Vec.copy !f in
          Vec.axpy ~alpha:gamma_pair ~x:d ~y:g;
          f := Vec.map (fun x -> Float.max 0. x) g
        end
        else f := Vec.lerp gamma_classic !f br
      end;
      loop (iter + 1)
    end
  in
  loop 0

let equilibrium ?max_iter ?tol inst =
  minimize ?max_iter ?tol
    ~objective:(fun f -> Potential.phi inst f)
    ~gradient:(fun f -> Flow.path_latencies inst f)
    inst

(* [∂C/∂f_P = Σ_{e∈P} (ℓ_e(f_e) + f_e ℓ'_e(f_e))]. *)
let marginal_gradient inst f =
  let fe = Flow.edge_flows inst f in
  let marg =
    Array.mapi
      (fun e load ->
        let l = Instance.latency inst e in
        Latency.eval l load +. (load *. Latency.deriv l load))
      fe
  in
  Array.init (Instance.path_count inst) (fun p ->
      Array.fold_left
        (fun acc e -> acc +. marg.(e))
        0.
        (Instance.path_edges inst p))

let optimum ?max_iter ?tol inst =
  minimize ?max_iter ?tol
    ~objective:(fun f -> Social.cost inst f)
    ~gradient:(fun f -> marginal_gradient inst f)
    inst
