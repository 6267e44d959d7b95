(* Synchronous discrete rounds (Bertsekas–Tsitsiklis): every agent
   applies the two-step policy at once, once per round.  In the fluid
   limit a round moves the flow by the full expected migration volume,
   one Euler step of h = 1 on the posted board, so these runs are
   [Driver.run] under [Helpers.rounds_config]. *)

open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Vec = Staleroute_util.Vec

let smooth_policy inst = Policy.uniform_linear inst

let rounds ?probe ?metrics ?faults ?(per_update = 1) inst policy ~updates
    init =
  Driver.run ?probe ?metrics ?faults inst
    (rounds_config ~per_update policy ~updates)
    ~init

let test_step_conserves_mass () =
  let inst = Common.grid33 () in
  let r =
    rounds inst (smooth_policy inst) ~updates:1 (Flow.random inst (rng ()))
  in
  check_true "feasible after a round"
    (Flow.is_feasible ~tol:1e-9 inst r.Driver.final_flow)

let test_step_equals_euler_unit_step () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  let board = Bulletin_board.post inst ~time:0. f in
  let policy = smooth_policy inst in
  let by_round = (rounds inst policy ~updates:1 f).Driver.final_flow in
  let deriv g = Rates.flow_derivative inst policy ~board g in
  let by_euler =
    Integrator.integrate_phase Integrator.Euler inst ~deriv ~f0:f ~tau:1.
      ~steps:1
  in
  check_true "synchronous round = unit Euler step"
    (Vec.approx_equal ~atol:1e-12 by_round by_euler)

let test_fixed_point_at_equilibrium () =
  let inst = Common.braess () in
  let eq = Flow.project inst Frank_wolfe.(equilibrium inst).flow in
  let r = rounds inst (smooth_policy inst) ~updates:1 eq in
  check_true "equilibrium is a fixed point"
    (Vec.dist1 r.Driver.final_flow eq < 1e-4)

let test_run_shape_and_chain () =
  let inst = Common.braess () in
  let r =
    rounds ~per_update:3 inst (smooth_policy inst) ~updates:10
      (Common.biased_start inst)
  in
  check_int "one record per update" 10 (Array.length r.Driver.records);
  check_close "final potential consistent"
    (Potential.phi inst r.Driver.final_flow)
    r.Driver.final_potential;
  Array.iteri
    (fun k rec_ ->
      check_int "indices" k rec_.Driver.index;
      check_close "update starts on the round grid"
        (3. *. float_of_int k) rec_.Driver.start_time)
    r.Driver.records

let test_converges_with_gentle_migration () =
  let inst = Common.two_link ~beta:4. in
  (* kappa = 1/8 of the linear rate: well within the stable region even
     for synchronous rounds. *)
  let policy =
    Policy.make ~sampling:Sampling.Uniform
      ~migration:
        (Migration.Scaled_linear { alpha = 0.125 /. Instance.ell_max inst })
  in
  let r = rounds inst policy ~updates:2000 (vec [| 0.9; 0.1 |]) in
  check_true "synchronous rounds converge when gentle"
    (Equilibrium.unsatisfied_volume inst r.Driver.final_flow ~delta:0.05
    < 1e-3)

let test_overshoots_where_continuous_would_not () =
  (* Better response + synchronous rounds: everything jumps to the
     posted best link each round -> full-amplitude flip-flop. *)
  let inst = Common.two_link ~beta:4. in
  let policy = Policy.better_response ~sampling:Sampling.Uniform in
  (* Enough rounds that the detection tail sits inside the settled
     1/3 <-> 2/3 cycle. *)
  let r = rounds inst policy ~updates:100 (vec [| 0.9; 0.1 |]) in
  check_true "synchronous better response flip-flops"
    (Convergence.is_oscillating (Common.phase_start_flows r))

let test_validation () =
  let inst = Common.braess () in
  let config = rounds_config (smooth_policy inst) ~updates:5 in
  let run ?(init = Flow.uniform inst) c = ignore (Driver.run inst c ~init) in
  check_raises_invalid "negative rounds" (fun () ->
      run { config with Driver.phases = -1 });
  check_raises_invalid "bad cadence" (fun () ->
      run (rounds_config ~per_update:0 (smooth_policy inst) ~updates:5));
  check_raises_invalid "infeasible init" (fun () ->
      run ~init:(vec [| 3.; 0.; 0. |]) config)

(* Faulted synchronous runs: the per-update fault plan is pure, so
   same-seed runs agree bit for bit, dropped re-posts keep the previous
   board (and its still-current kernel) across the update boundary, and
   delayed posts land on the round grid. *)
let faulted_run ?metrics ?probe spec =
  let inst = Common.two_link ~beta:4. in
  rounds ?probe ?metrics ~faults:(Faults.plan spec) ~per_update:3 inst
    (smooth_policy inst) ~updates:8 (Common.biased_start inst)

let test_faulted_run_deterministic () =
  let spec = Faults.make ~drop:0.3 ~delay:0.2 ~partial:0.2 ~seed:6 () in
  let a = faulted_run spec and b = faulted_run spec in
  check_true "same-seed faulted runs bit-identical"
    (Array.for_all2 same_bits
       (Vec.to_array a.Driver.final_flow)
       (Vec.to_array b.Driver.final_flow));
  Array.iter2
    (fun (ra : Driver.phase_record) rb ->
      check_close "update potentials agree" ra.Driver.start_potential
        rb.Driver.start_potential)
    a.Driver.records b.Driver.records

let test_drops_skip_rebuilds () =
  let module Metrics = Staleroute_obs.Metrics in
  let metrics = Metrics.create () in
  (* Every update attempt drops.  The first has no board to keep, so it
     degrades to a clean post; every later one keeps it.  The run must
     still pass the kernel-revision asserts (the surviving kernel *is*
     current). *)
  let r = faulted_run ~metrics (Faults.make ~drop:1. ~seed:1 ()) in
  let posts = Metrics.count (Metrics.counter metrics "board_reposts") in
  let rebuilds = Metrics.count (Metrics.counter metrics "kernel_rebuilds") in
  check_int "only the round-0 post lands" 1 posts;
  check_int "kernel rebuilt once per landed post" posts rebuilds;
  check_true "run still completes feasibly"
    (Flow.is_feasible ~tol:1e-9 (Common.two_link ~beta:4.)
       r.Driver.final_flow)

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
