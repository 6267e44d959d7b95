module Latency = Staleroute_latency.Latency

(* Only edges some active path uses can carry load.  Any other edge
   sits at load 0, where every latency family's integral is ±0, so its
   term cannot move the sum (which starts at +0. and so is never −0.):
   skipping it is bitwise-inert. *)
let phi_of_edge_flows inst fe =
  let used = Instance.edge_csr_offsets inst in
  let acc = ref 0. in
  for e = 0 to Array.length fe - 1 do
    if used.(e) < used.(e + 1) then
      acc := !acc +. Latency.integral (Instance.latency inst e) fe.(e)
  done;
  !acc

let phi inst f = phi_of_edge_flows inst (Flow.edge_flows inst f)

let upper_bound inst = Instance.ell_max inst
