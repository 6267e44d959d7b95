open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Vec = Staleroute_util.Vec

let test_board_snapshots () =
  let inst = Common.braess () in
  let f = vec [| 0.2; 0.3; 0.5 |] in
  let board = Bulletin_board.post inst ~time:7. f in
  check_close "posted_at" 7. board.Bulletin_board.posted_at;
  check_true "flow copied" (board.Bulletin_board.flow = f);
  let pl = Flow.path_latencies inst f in
  check_true "path latencies match"
    (Vec.approx_equal (vec pl) (vec board.Bulletin_board.path_latencies))

let test_board_is_a_copy () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  let board = Bulletin_board.post inst ~time:0. f in
  Vec.set f 0 99.;
  check_close "board immune to later mutation" (1. /. 3.)
    (Vec.get board.Bulletin_board.flow 0)

let test_derivative_conserves_mass () =
  let inst = Common.grid33 () in
  let f = Flow.random inst (rng ()) in
  let board = Bulletin_board.post inst ~time:0. f in
  List.iter
    (fun policy ->
      let d = Rates.flow_derivative inst policy ~board f in
      check_close ~eps:1e-10 "derivative sums to zero" 0. (Vec.sum d))
    [
      Policy.uniform_linear inst;
      Policy.replicator inst;
      Policy.best_response_approx inst ~c:4.;
      Policy.better_response ~sampling:Sampling.Uniform;
    ]

let test_derivative_zero_at_equilibrium () =
  let inst = Common.braess () in
  let eq = Frank_wolfe.equilibrium inst in
  let f = eq.Frank_wolfe.flow in
  let board = Bulletin_board.post inst ~time:0. f in
  let d = Rates.flow_derivative inst (Policy.uniform_linear inst) ~board f in
  check_true "near-zero derivative at equilibrium" (Vec.norm_inf d < 1e-4)

let test_derivative_direction_two_link () =
  (* Overloaded link must lose flow, underloaded must gain. *)
  let inst = Common.two_link ~beta:4. in
  let f = vec [| 0.9; 0.1 |] in
  let board = Bulletin_board.post inst ~time:0. f in
  let d = Rates.flow_derivative inst (Policy.uniform_linear inst) ~board f in
  check_true "overloaded loses" (Vec.get d 0 < 0.);
  check_true "underloaded gains" (Vec.get d 1 > 0.)

let test_derivative_uses_board_not_live_flow () =
  (* With a board frozen at the balanced point, latencies are equal and
     no one migrates - regardless of the live flow. *)
  let inst = Common.two_link ~beta:4. in
  let balanced = vec [| 0.5; 0.5 |] in
  let board = Bulletin_board.post inst ~time:0. balanced in
  let live = vec [| 0.9; 0.1 |] in
  let d = Rates.flow_derivative inst (Policy.uniform_linear inst) ~board live in
  check_close "stale balance freezes migration" 0. (Vec.norm_inf d)

let test_replicator_boundary_invariant () =
  (* Proportional sampling never revives a path with zero posted and
     zero live flow. *)
  let inst = Common.braess () in
  let f = vec [| 0.5; 0.5; 0. |] in
  let board = Bulletin_board.post inst ~time:0. f in
  let d = Rates.flow_derivative inst (Policy.replicator inst) ~board f in
  check_close "dead path stays dead" 0. (Vec.get d 2)

let test_migration_rate_single_pair () =
  let inst = Common.two_link ~beta:4. in
  let f = vec [| 0.9; 0.1 |] in
  let board = Bulletin_board.post inst ~time:0. f in
  let policy = Policy.uniform_linear inst in
  (* l1 = 4*(0.9-0.5) = 1.6, l2 = 0; sigma = 1/2; mu = 1.6/2 = 0.8. *)
  let rate = Rates.migration_rate inst policy ~board ~flow:f ~from_:0 1 in
  check_close "rho_PQ = f_P sigma mu" (0.9 *. 0.5 *. 0.8) rate;
  let reverse = Rates.migration_rate inst policy ~board ~flow:f ~from_:1 0 in
  check_close "no migration towards worse" 0. reverse

let test_derivative_matches_pairwise_rates () =
  let inst = Common.parallel 4 in
  let f = Flow.random inst (rng ()) in
  let board = Bulletin_board.post inst ~time:0. f in
  let policy = Policy.uniform_linear inst in
  let d = Rates.flow_derivative inst policy ~board f in
  for p = 0 to 3 do
    let manual = ref 0. in
    for q = 0 to 3 do
      if p <> q then
        manual :=
          !manual
          +. Rates.migration_rate inst policy ~board ~flow:f ~from_:q p
          -. Rates.migration_rate inst policy ~board ~flow:f ~from_:p q
    done;
    check_close ~eps:1e-12
      (Printf.sprintf "derivative entry %d" p)
      !manual (Vec.get d p)
  done

let suite =
  [
    case "board snapshots" test_board_snapshots;
    case "board copies" test_board_is_a_copy;
    case "mass conservation" test_derivative_conserves_mass;
    case "zero at equilibrium" test_derivative_zero_at_equilibrium;
    case "direction on two links" test_derivative_direction_two_link;
    case "stale board controls decisions"
      test_derivative_uses_board_not_live_flow;
    case "replicator boundary" test_replicator_boundary_invariant;
    case "single-pair rate" test_migration_rate_single_pair;
    case "derivative = pairwise rates" test_derivative_matches_pairwise_rates;
  ]
