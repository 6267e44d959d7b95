open Helpers
open Staleroute_wardrop
module Common = Staleroute_experiments.Common
module L = Staleroute_latency.Latency
module Vec = Staleroute_util.Vec

let test_two_link_even_split () =
  let st = Staleroute_graph.Gen.parallel_links 2 in
  let inst =
    Instance.create ~graph:st.Staleroute_graph.Gen.graph
      ~latencies:[| L.linear 1.; L.linear 1. |]
      ~commodities:[ Commodity.single ~src:0 ~dst:1 ]
      ()
  in
  let r = Frank_wolfe.equilibrium inst in
  check_close ~eps:1e-4 "even split" 0.5 (Vec.get r.Frank_wolfe.flow 0);
  check_close ~eps:1e-6 "phi*" 0.25 r.Frank_wolfe.objective;
  check_true "small wardrop gap"
    (Equilibrium.wardrop_gap inst r.Frank_wolfe.flow < 1e-3)

let test_asymmetric_links () =
  (* l1 = x, l2 = x + 1/2: equilibrium at f1 = 3/4, both latencies 3/4. *)
  let st = Staleroute_graph.Gen.parallel_links 2 in
  let inst =
    Instance.create ~graph:st.Staleroute_graph.Gen.graph
      ~latencies:[| L.linear 1.; L.affine ~slope:1. ~intercept:0.5 |]
      ~commodities:[ Commodity.single ~src:0 ~dst:1 ]
      ()
  in
  let r = Frank_wolfe.equilibrium inst in
  check_close ~eps:1e-3 "f1 = 3/4" 0.75 (Vec.get r.Frank_wolfe.flow 0);
  let pl = Flow.path_latencies inst r.Frank_wolfe.flow in
  check_close ~eps:1e-3 "equalised latencies" pl.(0) pl.(1)

let test_boundary_equilibrium () =
  (* l1 = x, l2 = 2 + x: all flow on link 1 (latency 1 < 2). *)
  let st = Staleroute_graph.Gen.parallel_links 2 in
  let inst =
    Instance.create ~graph:st.Staleroute_graph.Gen.graph
      ~latencies:[| L.linear 1.; L.affine ~slope:1. ~intercept:2. |]
      ~commodities:[ Commodity.single ~src:0 ~dst:1 ]
      ()
  in
  let r = Frank_wolfe.equilibrium inst in
  check_close ~eps:1e-4 "all flow on the cheap link" 1.
    (Vec.get r.Frank_wolfe.flow 0)

let test_braess_potential () =
  let inst = Common.braess () in
  let r = Frank_wolfe.equilibrium inst in
  (* Equilibrium: everything on the zigzag; Phi = 1/2 + 0 + 1/2 = 1. *)
  check_close ~eps:1e-6 "braess phi*" 1. r.Frank_wolfe.objective;
  check_close ~eps:1e-3 "zigzag carries all" 1. (Vec.get r.Frank_wolfe.flow 1)

let test_result_feasible_and_gap () =
  let inst = Common.grid33 () in
  let r = Frank_wolfe.equilibrium ~tol:1e-6 inst in
  check_true "flow feasible" (Flow.is_feasible inst r.Frank_wolfe.flow);
  check_true "gap below tolerance" (r.Frank_wolfe.gap <= 1e-6);
  check_true "converged before cap" (r.Frank_wolfe.iterations < 10_000)

let test_phi_star_no_larger_than_random_points () =
  let inst = Common.parallel 6 in
  let phi_star = Frank_wolfe.optimum_potential inst in
  let r = rng () in
  for _ = 1 to 50 do
    check_true "phi* is a lower bound"
      (phi_star <= Potential.phi inst (Flow.random inst r) +. 1e-9)
  done

let test_max_iter_respected () =
  let inst = Common.grid33 () in
  let r = Frank_wolfe.equilibrium ~max_iter:3 inst in
  check_true "iteration cap" (r.Frank_wolfe.iterations <= 3)

let test_multicommodity_equilibrium () =
  let graph =
    Staleroute_graph.Digraph.create ~nodes:4
      ~edges:[ (0, 2); (0, 2); (1, 2); (2, 3) ]
  in
  (* Commodity A: 0->2 over two parallel links; commodity B: 1->2 single
     path; edge (2,3) unused by both. *)
  let inst =
    Instance.create ~graph
      ~latencies:[| L.linear 1.; L.linear 1.; L.const 1.; L.const 1. |]
      ~commodities:
        [
          Commodity.make ~src:0 ~dst:2 ~demand:0.5;
          Commodity.make ~src:1 ~dst:2 ~demand:0.5;
        ]
      ()
  in
  let r = Frank_wolfe.equilibrium inst in
  check_true "feasible" (Flow.is_feasible inst r.Frank_wolfe.flow);
  check_true "wardrop for both commodities"
    (Equilibrium.wardrop_gap inst r.Frank_wolfe.flow < 1e-3)

let prop_equilibrium_gap_small_on_random_instances =
  qcheck ~count:10 "qcheck: FW duality gap bounds the unsatisfied volume"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      (* gap = sum_P f_P (l_P - l^i_min) >= delta * vol_delta, so the
         delta-unsatisfied volume of the solver output is certified by
         the gap it reports - however early it stopped. *)
      let inst = Common.layered_random ~seed in
      let r = Frank_wolfe.equilibrium inst in
      let delta = 0.01 in
      Equilibrium.unsatisfied_volume inst r.Frank_wolfe.flow ~delta
      <= (r.Frank_wolfe.gap /. delta) +. 1e-6)

(* --- Bitwise differential against the path-space oracle --- *)

module Rng = Staleroute_util.Rng
module Gen = Staleroute_graph.Gen
module Digraph = Staleroute_graph.Digraph

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_result (a : Frank_wolfe.result) (b : Frank_wolfe.result) =
  a.iterations = b.iterations
  && same_bits a.objective b.objective
  && same_bits a.gap b.gap
  && Vec.dim a.flow = Vec.dim b.flow
  &&
  let ok = ref true in
  for p = 0 to Vec.dim a.flow - 1 do
    if not (same_bits (Vec.get a.flow p) (Vec.get b.flow p)) then ok := false
  done;
  !ok

(* A 4x4 grid carrying three commodities over seeded affine latencies. *)
let grid_three_commodity ~seed =
  let st = Gen.grid ~width:4 ~height:4 in
  let rng = Rng.create ~seed () in
  let latencies =
    Array.init (Digraph.edge_count st.Gen.graph) (fun _ ->
        L.affine ~slope:(0.25 +. Rng.float rng 1.5)
          ~intercept:(Rng.float rng 0.3))
  in
  Instance.create ~graph:st.Gen.graph ~latencies
    ~commodities:
      [
        Commodity.make ~src:0 ~dst:15 ~demand:0.5;
        Commodity.make ~src:1 ~dst:14 ~demand:0.25;
        Commodity.make ~src:4 ~dst:11 ~demand:0.25;
      ]
    ()

(* A 3x3 grid over seeded monomial and polynomial latencies. *)
let grid_polynomial ~seed =
  let st = Gen.grid ~width:3 ~height:3 in
  let rng = Rng.create ~seed () in
  let latencies =
    Array.init (Digraph.edge_count st.Gen.graph) (fun e ->
        if e mod 2 = 0 then
          L.monomial ~coeff:(0.5 +. Rng.float rng 1.5) ~degree:(1 + Rng.int rng 4)
        else
          L.poly
            [| Rng.float rng 0.3; Rng.float rng 1.; 0.; Rng.float rng 2. |])
  in
  Instance.create ~graph:st.Gen.graph ~latencies
    ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
    ()

let instance_of_case (family, seed) =
  match family with
  | 0 -> Common.layered_random ~seed
  | 1 -> grid_three_commodity ~seed
  | _ -> grid_polynomial ~seed

(* Caps 1, 3 and 50 exercise the cap exit; the default cap lets the
   smaller instances reach the early (gap <= tol) exit. *)
let gen_case =
  QCheck2.Gen.(
    triple (int_range 0 2) (int_range 0 10_000)
      (oneofl [ Some 1; Some 3; Some 50; None ]))

let print_case (family, seed, cap) =
  Printf.sprintf "family %d, seed %d, max_iter %s" family seed
    (match cap with Some n -> string_of_int n | None -> "default")

(* The default 10 000-iteration cap on the oracle costs seconds on the
   grids, so only the layered family runs uncapped. *)
let cap_of (family, _, cap) =
  match cap with None when family <> 0 -> Some 200 | c -> c

let prop_equilibrium_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~print:print_case
       ~name:"qcheck: equilibrium bitwise equals the path-space oracle"
       gen_case (fun ((family, seed, _) as c) ->
         let inst = instance_of_case (family, seed) in
         let max_iter = cap_of c in
         same_result
           (Frank_wolfe.equilibrium ?max_iter inst)
           (Fw_oracle.equilibrium ?max_iter inst)))

let prop_optimum_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~print:print_case
       ~name:"qcheck: social optimum bitwise equals the path-space oracle"
       gen_case (fun ((family, seed, _) as c) ->
         let inst = instance_of_case (family, seed) in
         let max_iter = cap_of c in
         same_result (Social.optimum ?max_iter inst)
           (Fw_oracle.optimum ?max_iter inst)))

(* Fixed instances covering both exits: these converge well before the
   default cap, and at max_iter 1 they stop on the cap. *)
let test_fixed_instances_match_oracle () =
  List.iter
    (fun (name, tol, inst) ->
      List.iter
        (fun max_iter ->
          let r = Frank_wolfe.equilibrium ?max_iter ~tol inst in
          check_true (name ^ ": equilibrium")
            (same_result r (Fw_oracle.equilibrium ?max_iter ~tol inst));
          check_true (name ^ ": optimum")
            (same_result
               (Social.optimum ?max_iter ~tol inst)
               (Fw_oracle.optimum ?max_iter ~tol inst));
          if max_iter = None then
            check_true (name ^ ": early exit") (r.iterations < 10_000))
        [ None; Some 1 ])
    [
      ("braess", 1e-8, Common.braess ());
      ("grid33", 1e-6, Common.grid33 ());
      ("parallel6", 1e-8, Common.parallel 6);
    ]

let suite =
  [
    case "two-link even split" test_two_link_even_split;
    case "asymmetric links" test_asymmetric_links;
    case "boundary equilibrium" test_boundary_equilibrium;
    case "braess potential" test_braess_potential;
    case "feasible result, small gap" test_result_feasible_and_gap;
    case "phi* is a lower bound" test_phi_star_no_larger_than_random_points;
    case "max_iter respected" test_max_iter_respected;
    case "multicommodity" test_multicommodity_equilibrium;
    prop_equilibrium_gap_small_on_random_instances;
    case "fixed instances match the oracle" test_fixed_instances_match_oracle;
    prop_equilibrium_matches_oracle;
    prop_optimum_matches_oracle;
  ]
