module Latency = Staleroute_latency.Latency

let cost inst f =
  let fe = Flow.edge_flows inst f in
  let acc = ref 0. in
  Array.iteri
    (fun e load -> acc := !acc +. (load *. Latency.eval (Instance.latency inst e) load))
    fe;
  !acc

(* [optimum] minimises the same [x ℓ(x)] per edge that [cost] sums, with
   slope [ℓ + x ℓ'] — the marginal cost whose path sums are [∂C/∂f_P]. *)
let optimum ?max_iter ?tol inst =
  Frank_wolfe.minimize ?max_iter ?tol
    ~term:(fun l load -> load *. Latency.eval l load)
    ~slope:(fun l load -> Latency.eval l load +. (load *. Latency.deriv l load))
    inst

let price_of_anarchy_of inst ~equilibrium ~optimum =
  let ceq = cost inst equilibrium.Frank_wolfe.flow in
  let copt = optimum.Frank_wolfe.objective in
  if copt = 0. then if ceq = 0. then 1. else infinity else ceq /. copt

let price_of_anarchy ?max_iter ?tol inst =
  price_of_anarchy_of inst
    ~equilibrium:(Frank_wolfe.equilibrium ?max_iter ?tol inst)
    ~optimum:(optimum ?max_iter ?tol inst)
