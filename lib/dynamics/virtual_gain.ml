open Staleroute_wardrop
module Latency = Staleroute_latency.Latency

let error_terms inst ~phase_start ~phase_end =
  let fe_hat = Flow.edge_flows inst phase_start in
  let fe = Flow.edge_flows inst phase_end in
  let acc = ref 0. in
  Array.iteri
    (fun e load_end ->
      let l = Instance.latency inst e in
      let load_start = fe_hat.(e) in
      (* U_e = ∫_{f̂_e}^{f_e} ℓ_e - ℓ_e(f̂_e) (f_e - f̂_e), closed form. *)
      let integral_piece =
        Latency.integral l load_end -. Latency.integral l load_start
      in
      acc :=
        !acc +. integral_piece
        -. (Latency.eval l load_start *. (load_end -. load_start)))
    fe;
  !acc

let true_gain inst ~phase_start ~phase_end =
  Potential.phi inst phase_end -. Potential.phi inst phase_start

(* Φ and V follow [Potential]'s edge rule: sums in edge order over the
   edges some active path uses.  An unused edge has load 0 at both
   ends, so its V term ℓ_e(0)·(0 − 0) is ±0 (ℓ_e(0) is finite) and
   skipping it is bitwise-inert. *)
type ledger = {
  mutable start : float array;
  mutable finish : float array;
  sums : float array;  (* Φ, V of the last [close_phase] *)
}

let ledger inst f =
  let start = Flow.edge_flows inst f in
  {
    start;
    finish = Array.make (Array.length start) 0.;
    sums = Array.make 2 0.;
  }

(* Only the used edges' loads are gathered.  Unused edges are never
   written and stay 0; the used-edge index only grows under
   [Instance.extend], so an edge written once stays used. *)
let close_phase l inst f =
  let used = Instance.used_edges inst in
  Flow.edge_flows_into inst f ~edges:used ~count:(Array.length used) l.finish;
  let start = l.start and finish = l.finish in
  Latency.phase_sums (Instance.latencies inst) ~edges:used ~hat:start
    ~load:finish l.sums;
  l.start <- finish;
  l.finish <- start;
  (l.sums.(0), l.sums.(1))

let virtual_gain inst ~phase_start ~phase_end =
  snd (close_phase (ledger inst phase_start) inst phase_end)
