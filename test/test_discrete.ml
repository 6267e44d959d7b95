open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Vec = Staleroute_util.Vec

let smooth_policy inst = Policy.uniform_linear inst

let test_step_conserves_mass () =
  let inst = Common.grid33 () in
  let f = Flow.random inst (rng ()) in
  let board = Bulletin_board.post inst ~time:0. f in
  let g = Discrete.step inst (smooth_policy inst) ~board f in
  check_true "feasible after a round" (Flow.is_feasible ~tol:1e-9 inst g)

let test_step_equals_euler_unit_step () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  let board = Bulletin_board.post inst ~time:0. f in
  let policy = smooth_policy inst in
  let by_step = Discrete.step inst policy ~board f in
  let deriv g = Rates.flow_derivative inst policy ~board g in
  let by_euler =
    Integrator.integrate_phase Integrator.Euler inst ~deriv ~f0:f ~tau:1.
      ~steps:1
  in
  check_true "synchronous round = unit Euler step"
    (Vec.approx_equal ~atol:1e-12 by_step by_euler)

let test_fixed_point_at_equilibrium () =
  let inst = Common.braess () in
  let eq = Flow.project inst Frank_wolfe.(equilibrium inst).flow in
  let board = Bulletin_board.post inst ~time:0. eq in
  let g = Discrete.step inst (smooth_policy inst) ~board eq in
  check_true "equilibrium is a fixed point" (Vec.dist1 g eq < 1e-4)

let test_run_shape_and_chain () =
  let inst = Common.braess () in
  let config =
    { Discrete.policy = smooth_policy inst; rounds = 30;
      rounds_per_update = 3 }
  in
  let r = Discrete.run inst config ~init:(Common.biased_start inst) in
  check_int "one record per round" 30 (Array.length r.Discrete.records);
  check_close "final potential consistent"
    (Potential.phi inst r.Discrete.final_flow)
    r.Discrete.final_potential;
  Array.iteri
    (fun k rec_ -> check_int "indices" k rec_.Discrete.index)
    r.Discrete.records

let test_converges_with_gentle_migration () =
  let inst = Common.two_link ~beta:4. in
  (* kappa = 1/8 of the linear rate: well within the stable region even
     for synchronous rounds. *)
  let policy =
    Policy.make ~sampling:Sampling.Uniform
      ~migration:
        (Migration.Scaled_linear { alpha = 0.125 /. Instance.ell_max inst })
  in
  let config =
    { Discrete.policy; rounds = 2000; rounds_per_update = 1 }
  in
  let r = Discrete.run inst config ~init:(vec [| 0.9; 0.1 |]) in
  check_true "synchronous rounds converge when gentle"
    (Equilibrium.unsatisfied_volume inst r.Discrete.final_flow ~delta:0.05
    < 1e-3)

let test_overshoots_where_continuous_would_not () =
  (* Better response + synchronous rounds: everything jumps to the
     posted best link each round -> full-amplitude flip-flop. *)
  let inst = Common.two_link ~beta:4. in
  let policy = Policy.better_response ~sampling:Sampling.Uniform in
  (* Enough rounds that the detection tail sits inside the settled
     1/3 <-> 2/3 cycle. *)
  let config = { Discrete.policy; rounds = 100; rounds_per_update = 1 } in
  let r = Discrete.run inst config ~init:(vec [| 0.9; 0.1 |]) in
  let snapshots =
    Array.append
      (Array.map (fun rec_ -> rec_.Discrete.start_flow) r.Discrete.records)
      [| r.Discrete.final_flow |]
  in
  check_true "synchronous better response flip-flops"
    (Convergence.is_oscillating snapshots)

let test_validation () =
  let inst = Common.braess () in
  let config =
    { Discrete.policy = smooth_policy inst; rounds = 5; rounds_per_update = 1 }
  in
  check_raises_invalid "negative rounds" (fun () ->
      ignore
        (Discrete.run inst
           { config with Discrete.rounds = -1 }
           ~init:(Flow.uniform inst)));
  check_raises_invalid "bad cadence" (fun () ->
      ignore
        (Discrete.run inst
           { config with Discrete.rounds_per_update = 0 }
           ~init:(Flow.uniform inst)));
  check_raises_invalid "infeasible init" (fun () ->
      ignore (Discrete.run inst config ~init:(vec [| 3.; 0.; 0. |])))

(* Faulted synchronous runs: the per-update fault plan is pure, so
   same-seed runs agree bit for bit, dropped re-posts keep the previous
   board (and its still-current kernel) across the update boundary, and
   delayed posts land on the round grid. *)
let faulted_run ?metrics ?probe spec =
  let inst = Common.two_link ~beta:4. in
  let config =
    { Discrete.policy = smooth_policy inst; rounds = 24;
      rounds_per_update = 3 }
  in
  Discrete.run ?probe ?metrics ~faults:(Faults.plan spec) inst config
    ~init:(Common.biased_start inst)

let test_faulted_run_deterministic () =
  let spec = Faults.make ~drop:0.3 ~delay:0.2 ~partial:0.2 ~seed:6 () in
  let a = faulted_run spec and b = faulted_run spec in
  check_true "same-seed faulted runs bit-identical"
    (Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       (Staleroute_util.Vec.to_array a.Discrete.final_flow)
       (Staleroute_util.Vec.to_array b.Discrete.final_flow));
  Array.iter2
    (fun (ra : Discrete.round_record) rb ->
      check_close "round potentials agree" ra.Discrete.start_potential
        rb.Discrete.start_potential)
    a.Discrete.records b.Discrete.records

let test_drops_skip_rebuilds () =
  let module Metrics = Staleroute_obs.Metrics in
  let metrics = Metrics.create () in
  (* Every update attempt drops, attempt 0 included: the explicit round-0
     post comes first, so even attempt 0 has a previous board to keep
     and injects a real [Drop].  The run must still pass the
     kernel-revision asserts (the surviving kernel *is* current). *)
  let r = faulted_run ~metrics (Faults.make ~drop:1. ~seed:1 ()) in
  let posts = Metrics.count (Metrics.counter metrics "board_reposts") in
  let rebuilds = Metrics.count (Metrics.counter metrics "kernel_rebuilds") in
  check_int "only the round-0 post lands" 1 posts;
  check_int "kernel rebuilt once per landed post" posts rebuilds;
  check_true "run still completes feasibly"
    (Flow.is_feasible ~tol:1e-9 (Common.two_link ~beta:4.)
       r.Discrete.final_flow)

let test_delay_lands_on_round_grid () =
  let module Probe = Staleroute_obs.Probe in
  let buf = Probe.Memory.create () in
  ignore
    (faulted_run ~probe:(Probe.Memory.probe buf)
       (Faults.make ~delay:1. ~delay_fraction:0.4 ~seed:2 ()));
  let delays =
    Probe.Memory.count buf (function
      | Probe.Fault_injected { kind = "delay"; _ } -> true
      | _ -> false)
  in
  check_true "delays injected" (delays > 0);
  (* Every repost time is a whole round boundary: delayed posts land on
     the grid, never between rounds. *)
  Array.iter
    (function
      | Probe.Board_repost { time } ->
          check_close "repost on the round grid" (Float.round time) time
      | _ -> ())
    (Probe.Memory.events buf)

let suite =
  [
    case "mass conservation" test_step_conserves_mass;
    case "round = unit Euler step" test_step_equals_euler_unit_step;
    case "equilibrium fixed point" test_fixed_point_at_equilibrium;
    case "run shape" test_run_shape_and_chain;
    case "gentle migration converges" test_converges_with_gentle_migration;
    case "better response flip-flops" test_overshoots_where_continuous_would_not;
    case "validation" test_validation;
    case "faulted run deterministic" test_faulted_run_deterministic;
    case "drops skip rebuilds" test_drops_skip_rebuilds;
    case "delay lands on round grid" test_delay_lands_on_round_grid;
  ]
