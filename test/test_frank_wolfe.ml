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
  (* Equilibrium: everything on the zigzag; Phi = 1/2 + 0 + 1/2 = 1.  The
     other two paths tie with it there, so the certificate is a sum of
     exact zeros. *)
  check_true "braess phi* exactly 1" (r.Frank_wolfe.objective = 1.);
  check_true "zigzag carries all" (Vec.get r.Frank_wolfe.flow 1 = 1.);
  check_true "gap exactly 0" (r.Frank_wolfe.gap = 0.)

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
     path; commodity C: A's terminals with zero demand; edge (2,3) unused
     by all.  B has nothing to move and C carries nothing. *)
  let inst =
    Instance.create ~graph
      ~latencies:[| L.linear 1.; L.linear 1.; L.const 1.; L.const 1. |]
      ~commodities:
        [
          Commodity.make ~src:0 ~dst:2 ~demand:0.5;
          Commodity.make ~src:1 ~dst:2 ~demand:0.5;
          { Commodity.src = 0; dst = 2; demand = 0. };
        ]
      ()
  in
  let r = Frank_wolfe.equilibrium inst in
  check_true "feasible" (Flow.is_feasible inst r.Frank_wolfe.flow);
  check_true "wardrop for both commodities"
    (Equilibrium.wardrop_gap inst r.Frank_wolfe.flow < 1e-3);
  check_true "single path carries its demand"
    (Vec.get r.flow (Instance.paths_of_commodity inst 1).(0) = 0.5);
  Array.iter
    (fun p -> check_true "zero demand carries nothing" (Vec.get r.flow p = 0.))
    (Instance.paths_of_commodity inst 2)

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

(* --- Certificates, cross-checked against projected gradient --- *)

module Rng = Staleroute_util.Rng
module Gen = Staleroute_graph.Gen
module Digraph = Staleroute_graph.Digraph

let three_commodities =
  [
    Commodity.make ~src:0 ~dst:15 ~demand:0.5;
    Commodity.make ~src:1 ~dst:14 ~demand:0.25;
    Commodity.make ~src:4 ~dst:11 ~demand:0.25;
  ]

(* A 4x4 grid carrying three commodities over seeded latencies drawn by
   [latency rng e]. *)
let grid_three_commodity ~latency ~seed =
  let st = Gen.grid ~width:4 ~height:4 in
  let rng = Rng.create ~seed () in
  let latencies = Array.init (Digraph.edge_count st.Gen.graph) (latency rng) in
  Instance.create ~graph:st.Gen.graph ~latencies ~commodities:three_commodities
    ()

let affine rng _ =
  L.affine ~slope:(0.25 +. Rng.float rng 1.5) ~intercept:(Rng.float rng 0.3)

(* Smooth non-affine kinds: the root-find takes several evaluations. *)
let smooth rng e =
  match e mod 3 with
  | 0 -> L.monomial ~coeff:(0.5 +. Rng.float rng 1.5) ~degree:(1 + Rng.int rng 4)
  | 1 -> L.poly [| Rng.float rng 0.3; Rng.float rng 1.; 0.; Rng.float rng 2. |]
  | _ -> L.mm1 ~capacity:(1.5 +. Rng.float rng 2.)

(* Adds kinked kinds (relu, pwl) with zero-slope stretches. *)
let mixed rng e =
  match e mod 5 with
  | 0 | 1 | 2 -> smooth rng e
  | 3 -> L.relu ~slope:(0.5 +. Rng.float rng 2.) ~knee:(Rng.float rng 0.5)
  | _ ->
      let y = Rng.float rng 0.5 in
      L.pwl [ (0., y); (0.3, y); (0.6, y +. Rng.float rng 1.); (1., 2.) ]

let instance_of_case (family, seed) =
  match family with
  | 0 -> Common.layered_random ~seed
  | 1 -> grid_three_commodity ~latency:affine ~seed
  | 2 -> grid_three_commodity ~latency:smooth ~seed
  | _ -> grid_three_commodity ~latency:mixed ~seed

(* The system-optimum objective and its gradient, for [Descent]. *)
let marginal_costs inst f =
  let fe = Flow.edge_flows inst f in
  let marg =
    Array.mapi
      (fun e x ->
        let l = Instance.latency inst e in
        L.eval l x +. (x *. L.deriv l x))
      fe
  in
  Array.init (Instance.path_count inst) (fun p ->
      Flow.path_latency inst ~edge_latencies:marg p)

let descent_optimum inst =
  Descent.minimize ~objective:(Social.cost inst) ~gradient:(marginal_costs inst)
    inst

let feasible_non_negative inst f =
  Flow.is_feasible inst f
  &&
  let ok = ref true in
  for p = 0 to Vec.dim f - 1 do
    if not (Vec.get f p >= 0.) then ok := false
  done;
  !ok

(* What every result certifies: a feasible flow, a non-negative gap
   that met [tol] unless the sweep cap stopped the solve, an objective
   that is bitwise the objective of [flow], and a lower bound
   [objective − gap] no larger than what projected gradient reaches. *)
let certified ~tol ~max_iter ~objective_of ~reference inst
    (r : Frank_wolfe.result) =
  feasible_non_negative inst r.flow
  && r.gap >= 0.
  && (r.gap <= tol || r.iterations = max_iter)
  && r.iterations <= max_iter
  && same_bits r.objective (objective_of inst r.flow)
  && r.objective -. r.gap <= reference +. 1e-9

(* Caps 1 and 3 exercise the cap exit, the default cap the early one. *)
let gen_case ~families =
  QCheck2.Gen.(
    triple
      (int_range 0 (families - 1))
      (int_range 0 10_000)
      (oneofl [ 1; 3; 10_000 ]))

let print_case (family, seed, cap) =
  Printf.sprintf "family %d, seed %d, max_iter %d" family seed cap

let prop_equilibrium_certified =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~print:print_case
       ~name:"qcheck: equilibrium certificate holds, Descent cross-check"
       (gen_case ~families:4) (fun (family, seed, max_iter) ->
         let inst = instance_of_case (family, seed) in
         let tol = 1e-8 in
         certified ~tol ~max_iter ~objective_of:Potential.phi
           ~reference:(Descent.equilibrium inst).Descent.objective inst
           (Frank_wolfe.equilibrium ~max_iter ~tol inst)))

(* Kinked latencies make the marginal social cost discontinuous, so the
   smooth families only (the last family is the kinked one). *)
let prop_optimum_certified =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~print:print_case
       ~name:"qcheck: social optimum certificate holds, Descent cross-check"
       (gen_case ~families:3) (fun (family, seed, max_iter) ->
         let inst = instance_of_case (family, seed) in
         let tol = 1e-8 in
         certified ~tol ~max_iter ~objective_of:Social.cost
           ~reference:(descent_optimum inst).Descent.objective inst
           (Social.optimum ~max_iter ~tol inst)))

let parallel_instance latencies =
  let st = Gen.parallel_links (Array.length latencies) in
  Instance.create ~graph:st.Gen.graph ~latencies
    ~commodities:[ Commodity.single ~src:0 ~dst:1 ]
    ()

(* Zero slope over the whole move: g(δ) never falls to 0 on [0, f_P],
   so the whole of f_P moves in the first sweep and the second gather
   certifies a gap of exactly 0. *)
let test_zero_slope_moves_everything () =
  List.iter
    (fun (name, latencies, expected) ->
      let inst = parallel_instance latencies in
      let r = Frank_wolfe.equilibrium inst in
      check_int (name ^ ": one sweep") 1 r.iterations;
      check_true (name ^ ": gap exactly 0") (r.gap = 0.);
      Array.iteri
        (fun p x ->
          check_true
            (Printf.sprintf "%s: path %d carries exactly %g" name p x)
            (Vec.get r.flow p = x))
        expected)
    [
      ("const", [| L.const 1.; L.const 2. |], [| 1.; 0. |]);
      ( "relu below its knee",
        [| L.const 2.; L.relu ~slope:4. ~knee:0.75 |],
        [| 0.; 1. |] );
    ]

(* The end-to-end benchmark's fresh_grid instance: a 4x4 grid under
   seeded affine latencies.  At seed 5 the Frank–Wolfe solver this
   module used to run stopped at its cap with a Wardrop gap of 6.2e-2,
   so every Φ* built on it was too high. *)
let fresh_grid ~seed =
  let st = Gen.grid ~width:4 ~height:4 in
  let latencies =
    Array.init (Digraph.edge_count st.Gen.graph) (affine (Rng.create ~seed ()))
  in
  Instance.create ~graph:st.Gen.graph ~latencies
    ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
    ()

let test_fresh_grid_certified () =
  for seed = 1 to 10 do
    let inst = fresh_grid ~seed in
    let r = Frank_wolfe.equilibrium inst in
    let name = Printf.sprintf "seed %d" seed in
    check_true (name ^ ": gap <= 1e-8") (r.gap <= 1e-8);
    check_true (name ^ ": within 200 sweeps") (r.iterations < 200);
    check_true (name ^ ": Wardrop gap < 1e-7")
      (Equilibrium.wardrop_gap inst r.flow < 1e-7)
  done

(* Kinked latencies make the marginal social cost discontinuous: the
   solve may not certify [tol] and then runs to its cap (2 000 sweeps
   here, to keep the test short), but it still ends no worse than
   projected gradient. *)
let test_kinked_optimum_no_worse_than_descent () =
  List.iter
    (fun seed ->
      let inst = grid_three_commodity ~latency:mixed ~seed in
      let r = Social.optimum ~max_iter:2_000 inst in
      check_true "feasible" (feasible_non_negative inst r.flow);
      check_true
        (Printf.sprintf "seed %d: objective <= Descent + 1e-9" seed)
        (r.objective <= (descent_optimum inst).Descent.objective +. 1e-9))
    [ 1; 2; 3 ]

(* Allocation contract: the solver's scratch is allocated once per
   solve, and what remains per sweep is the boxed floats crossing the
   [term]/[slope] closures.  The seed-1 fresh_grid solve takes 52
   sweeps and ~130 000 words on a non-flambda native compiler; an
   edge-load array per root-find evaluation would add ~100 000. *)
let test_solve_allocation_bounded () =
  match Sys.backend_type with
  | Sys.Native ->
      let inst = fresh_grid ~seed:1 in
      ignore (Frank_wolfe.equilibrium inst);
      let before = Gc.minor_words () in
      ignore (Frank_wolfe.equilibrium inst);
      let words = Gc.minor_words () -. before in
      check_true
        (Printf.sprintf "fresh_grid seed 1: %.0f minor words <= 160 000" words)
        (words <= 160_000.)
  | _ -> ()

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
    prop_equilibrium_certified;
    prop_optimum_certified;
    case "zero-slope edges move all of f_P" test_zero_slope_moves_everything;
    case "fresh_grid seeds 1-10 certified" test_fresh_grid_certified;
    case "kinked social optimum no worse than Descent"
      test_kinked_optimum_no_worse_than_descent;
    case "minor words per full solve bounded" test_solve_allocation_bounded;
  ]
