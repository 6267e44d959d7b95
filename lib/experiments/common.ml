open Staleroute_graph
open Staleroute_wardrop
open Staleroute_dynamics
module Latency = Staleroute_latency.Latency
module Rng = Staleroute_util.Rng

let single_commodity st latencies =
  Instance.create ~graph:st.Gen.graph ~latencies
    ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
    ()

let two_link ~beta =
  let st = Gen.parallel_links 2 in
  let l = Latency.relu ~slope:beta ~knee:0.5 in
  single_commodity st [| l; l |]

let braess () =
  let st = Gen.braess () in
  (* Edge order: 0:(s,v) 1:(s,w) 2:(v,t) 3:(w,t) 4:(v,w). *)
  let latencies =
    [|
      Latency.linear 1.;
      Latency.const 1.;
      Latency.const 1.;
      Latency.linear 1.;
      Latency.const 0.;
    |]
  in
  single_commodity st latencies

let parallel m =
  let st = Gen.parallel_links m in
  let latencies =
    Array.init m (fun j ->
        let slope = float_of_int (1 + (j mod 3)) in
        let intercept = 0.3 *. float_of_int j /. float_of_int (max 1 (m - 1)) in
        Latency.affine ~slope ~intercept)
  in
  single_commodity st latencies

let needle m =
  if m < 2 then invalid_arg "Common.needle: need m >= 2";
  let st = Gen.parallel_links m in
  let latencies =
    Array.init m (fun j ->
        if j = 0 then Latency.linear 1. else Latency.const 2.)
  in
  single_commodity st latencies

let grid33 () =
  let st = Gen.grid ~width:3 ~height:3 in
  let m = Digraph.edge_count st.Gen.graph in
  let latencies =
    Array.init m (fun e ->
        (* Deterministic spread of slopes and intercepts. *)
        let slope = 0.5 +. (0.25 *. float_of_int (e mod 4)) in
        let intercept = 0.1 *. float_of_int (e mod 3) in
        Latency.affine ~slope ~intercept)
  in
  single_commodity st latencies

let layered_random ~seed =
  let rng = Rng.create ~seed () in
  let st = Gen.layered ~rng ~layers:2 ~width:3 ~edge_prob:0.5 in
  let m = Digraph.edge_count st.Gen.graph in
  let latencies =
    Array.init m (fun _ ->
        Latency.affine
          ~slope:(0.25 +. Rng.float rng 1.5)
          ~intercept:(Rng.float rng 0.3))
  in
  single_commodity st latencies

let poly_parallel ~m ~degree =
  if m < 2 then invalid_arg "Common.poly_parallel: need m >= 2";
  if degree < 1 then invalid_arg "Common.poly_parallel: need degree >= 1";
  let st = Gen.parallel_links m in
  (* Coefficients scaled by 2^(d-1) so ℓ(1/2) ≈ 1/2 at every degree:
     congestion sets in at half load instead of collapsing to zero,
     keeping the workload non-degenerate as the degree grows. *)
  let latencies =
    Array.init m (fun j ->
        Latency.shift
          (0.02 *. float_of_int (1 + j))
          (Latency.monomial
             ~coeff:
               ((1. +. (float_of_int j /. (4. *. float_of_int m)))
               *. (2. ** float_of_int (degree - 1)))
             ~degree))
  in
  single_commodity st latencies

let two_commodity () =
  let graph =
    Digraph.create ~nodes:4
      ~edges:[ (0, 2); (2, 3); (0, 3); (1, 2); (1, 3) ]
  in
  let latencies =
    [|
      Latency.linear 1.;
      Latency.affine ~slope:1. ~intercept:0.1;
      Latency.const 0.8;
      Latency.linear 2.;
      Latency.const 0.9;
    |]
  in
  Instance.create ~graph ~latencies
    ~commodities:
      [
        Commodity.make ~src:0 ~dst:3 ~demand:0.6;
        Commodity.make ~src:1 ~dst:3 ~demand:0.4;
      ]
    ()

(* Ambient instrumentation: a harness (bench, CLI) can route every
   [run] call through its own probe/metrics without threading arguments
   into each experiment module.  Domain-local, not global: when a pool
   fans experiments out across domains, each task installs its own
   registry without stomping its siblings'. *)
let ambient :
    (Staleroute_obs.Probe.t
    * Staleroute_obs.Metrics.t
    * Staleroute_obs.Span.recorder)
    option
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_instrumentation ?(spans = Staleroute_obs.Span.null) ~probe ~metrics ()
    =
  Domain.DLS.set ambient (Some (probe, metrics, spans))

let clear_instrumentation () = Domain.DLS.set ambient None

let run ?probe ?metrics ?spans ?faults ?guard ?colgen ?from ?checkpoint_every
    ?on_checkpoint inst policy staleness ~phases ?(steps_per_phase = 20)
    ?(scheme = Integrator.Rk4) ?init () =
  let config = { Driver.policy; staleness; phases; steps_per_phase; scheme } in
  let init =
    match init with Some f -> f | None -> Flow.concentrated inst ~on:(fun _ -> 0)
  in
  let ambient_probe, ambient_metrics, ambient_spans =
    match Domain.DLS.get ambient with
    | Some (p, m, s) -> (p, m, s)
    | None ->
        ( Staleroute_obs.Probe.null,
          Staleroute_obs.Metrics.null,
          Staleroute_obs.Span.null )
  in
  let probe = Option.value probe ~default:ambient_probe in
  let metrics = Option.value metrics ~default:ambient_metrics in
  let spans = Option.value spans ~default:ambient_spans in
  Driver.run ~probe ~metrics ~spans ?faults ?guard ?colgen ?from
    ?checkpoint_every ?on_checkpoint inst config ~init

let worst_start inst =
  let pl = Flow.path_latencies inst (Flow.uniform inst) in
  Flow.concentrated inst ~on:(fun ci ->
      let ps = Instance.paths_of_commodity inst ci in
      let worst = ref 0 in
      Array.iteri (fun j p -> if pl.(p) > pl.(ps.(!worst)) then worst := j) ps;
      !worst)

let biased_start inst =
  Staleroute_util.Vec.lerp 0.1 (worst_start inst) (Flow.uniform inst)

let phase_start_flows (result : Driver.result) =
  Array.append
    (Array.map (fun r -> r.Driver.start_flow) result.Driver.records)
    [| result.Driver.final_flow |]

let safe_period inst policy =
  match Policy.safe_update_period inst policy with
  | None -> invalid_arg "Common.safe_period: policy is not smooth"
  | Some t -> Float.min t 1.

let sweep_pool ?(steps_per_phase = 20) ~phases inst pool =
  Staleroute_util.Pool.gate pool
    ~work:(phases * steps_per_phase * Rate_kernel.entry_count inst)
