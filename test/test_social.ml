open Helpers
open Staleroute_wardrop
module Common = Staleroute_experiments.Common
module L = Staleroute_latency.Latency

let pigou () =
  (* Pigou's example: l1 = x, l2 = 1.  Equilibrium all on link 1 (cost
     1); optimum splits 1/2-1/2 (cost 3/4); PoA = 4/3. *)
  let st = Staleroute_graph.Gen.parallel_links 2 in
  Instance.create ~graph:st.Staleroute_graph.Gen.graph
    ~latencies:[| L.linear 1.; L.const 1. |]
    ~commodities:[ Commodity.single ~src:0 ~dst:1 ]
    ()

let test_cost_formula () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  let pl = Flow.path_latencies inst f in
  check_close "C(f) = sum f_P l_P"
    (Flow.overall_avg_latency inst f ~path_latencies:pl)
    (Social.cost inst f)

let test_pigou_optimum () =
  let inst = pigou () in
  let opt = Social.optimum inst in
  check_close ~eps:1e-3 "optimal split" 0.5
    (Staleroute_util.Vec.get opt.Frank_wolfe.flow 0);
  check_close ~eps:1e-4 "optimal cost 3/4" 0.75 opt.Frank_wolfe.objective

let test_pigou_poa () =
  check_close ~eps:1e-3 "pigou PoA 4/3" (4. /. 3.)
    (Social.price_of_anarchy (pigou ()))

let test_braess_poa () =
  check_close ~eps:1e-3 "braess PoA 4/3" (4. /. 3.)
    (Social.price_of_anarchy (Common.braess ()))

(* The ratio from solves already at hand is [price_of_anarchy]'s, bit
   for bit: the CLIs' reports solve each problem once. *)
let test_poa_of_results () =
  List.iter
    (fun (name, inst) ->
      let equilibrium = Frank_wolfe.equilibrium inst in
      let optimum = Social.optimum inst in
      check_true
        (name ^ ": price_of_anarchy_of = price_of_anarchy, bitwise")
        (Int64.equal
           (Int64.bits_of_float
              (Social.price_of_anarchy_of inst ~equilibrium ~optimum))
           (Int64.bits_of_float (Social.price_of_anarchy inst))))
    [ ("pigou", pigou ()); ("braess", Common.braess ()) ]

let test_poa_at_least_one () =
  List.iter
    (fun inst ->
      check_true "PoA >= 1" (Social.price_of_anarchy inst >= 1. -. 1e-6))
    [ Common.parallel 4; Common.grid33 (); Common.layered_random ~seed:3 ]

let test_poa_one_for_constant_latencies () =
  let st = Staleroute_graph.Gen.parallel_links 2 in
  let inst =
    Instance.create ~graph:st.Staleroute_graph.Gen.graph
      ~latencies:[| L.const 1.; L.const 1. |]
      ~commodities:[ Commodity.single ~src:0 ~dst:1 ]
      ()
  in
  check_close ~eps:1e-6 "constant latencies: PoA 1" 1.
    (Social.price_of_anarchy inst)

let test_poa_zero_cost_edge_case () =
  let st = Staleroute_graph.Gen.parallel_links 2 in
  let inst =
    Instance.create ~graph:st.Staleroute_graph.Gen.graph
      ~latencies:[| L.const 0.; L.const 0. |]
      ~commodities:[ Commodity.single ~src:0 ~dst:1 ]
      ()
  in
  check_close "0/0 defined as 1" 1. (Social.price_of_anarchy inst)

let test_optimum_cost_below_equilibrium_cost () =
  List.iter
    (fun inst ->
      let eq = Frank_wolfe.equilibrium inst in
      let opt = Social.optimum inst in
      check_true "C(opt) <= C(eq)"
        (opt.Frank_wolfe.objective
        <= Social.cost inst eq.Frank_wolfe.flow +. 1e-6))
    [ pigou (); Common.braess (); Common.parallel 6 ]

let test_affine_poa_bound () =
  (* Roughgarden-Tardos: affine latencies have PoA <= 4/3. *)
  List.iter
    (fun inst ->
      check_true "affine PoA <= 4/3"
        (Social.price_of_anarchy inst <= (4. /. 3.) +. 1e-3))
    [ Common.parallel 4; Common.grid33 (); Common.layered_random ~seed:11 ]

let suite =
  [
    case "cost formula" test_cost_formula;
    case "pigou optimum" test_pigou_optimum;
    case "pigou PoA" test_pigou_poa;
    case "braess PoA" test_braess_poa;
    case "PoA from solved results" test_poa_of_results;
    case "PoA >= 1" test_poa_at_least_one;
    case "constant latencies PoA 1" test_poa_one_for_constant_latencies;
    case "zero-cost PoA" test_poa_zero_cost_edge_case;
    case "optimum below equilibrium" test_optimum_cost_below_equilibrium_cost;
    case "affine PoA bound (4/3)" test_affine_poa_bound;
  ]
