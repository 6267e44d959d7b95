module Latency = Staleroute_latency.Latency

(* Only edges some active path uses can carry load.  Any other edge
   sits at load 0, where every latency family's integral is ±0, so its
   term cannot move the sum (which starts at +0. and so is never −0.):
   skipping it is bitwise-inert. *)
let phi_of_edge_flows inst fe =
  if Array.length fe <> Staleroute_graph.Digraph.edge_count (Instance.graph inst)
  then invalid_arg "Potential.phi_of_edge_flows: one load per edge required";
  Latency.integral_sum (Instance.latencies inst)
    ~edges:(Instance.used_edges inst) fe

let phi inst f = phi_of_edge_flows inst (Flow.edge_flows inst f)

let upper_bound inst = Instance.ell_max inst
