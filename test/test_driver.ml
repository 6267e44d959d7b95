open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Vec = Staleroute_util.Vec

let config ?(phases = 50) ?(steps = 10) policy staleness =
  { Driver.policy; staleness; phases; steps_per_phase = steps;
    scheme = Integrator.Rk4 }

let test_run_shape () =
  let inst = Common.braess () in
  let c = config (Policy.uniform_linear inst) (Driver.Stale 0.1) in
  let r = Driver.run inst c ~init:(Flow.uniform inst) in
  check_int "one record per phase" 50 (Array.length r.Driver.records);
  Array.iteri
    (fun k rec_ ->
      check_int "indices in order" k rec_.Driver.index;
      check_close "time grid" (0.1 *. float_of_int k) rec_.Driver.start_time)
    r.Driver.records;
  check_true "final flow feasible" (Flow.is_feasible inst r.Driver.final_flow)

let test_records_chain () =
  (* Potential bookkeeping: record k's potential + delta = record k+1's. *)
  let inst = Common.braess () in
  let c = config (Policy.replicator inst) (Driver.Stale 0.15) in
  let r = Driver.run inst c ~init:(Common.biased_start inst) in
  for k = 0 to Array.length r.Driver.records - 2 do
    check_close ~eps:1e-9 "phi chain"
      (r.Driver.records.(k).Driver.start_potential
      +. r.Driver.records.(k).Driver.delta_phi)
      r.Driver.records.(k + 1).Driver.start_potential
  done

let test_final_potential_consistent () =
  let inst = Common.parallel 4 in
  let c = config (Policy.uniform_linear inst) (Driver.Stale 0.2) in
  let r = Driver.run inst c ~init:(Flow.uniform inst) in
  check_close ~eps:1e-9 "final potential matches final flow"
    (Potential.phi inst r.Driver.final_flow)
    r.Driver.final_potential

let test_smooth_policy_descends_at_safe_period () =
  let inst = Common.braess () in
  let policy = Policy.uniform_linear inst in
  let t = Common.safe_period inst policy in
  let c = config ~phases:80 policy (Driver.Stale t) in
  let r = Driver.run inst c ~init:(Common.biased_start inst) in
  Array.iter
    (fun rec_ ->
      check_true "Lemma 4: dPhi <= V/2 <= 0"
        (rec_.Driver.delta_phi <= (rec_.Driver.virtual_gain /. 2.) +. 1e-9
        && rec_.Driver.virtual_gain <= 1e-12))
    r.Driver.records

let test_fresh_converges_to_equilibrium () =
  let inst = Common.braess () in
  let c =
    config ~phases:300 (Policy.uniform_linear inst) Driver.Fresh
  in
  let r = Driver.run inst c ~init:(Common.biased_start inst) in
  check_true "near equilibrium"
    (Equilibrium.wardrop_gap inst r.Driver.final_flow < 0.05);
  let phi_star = Frank_wolfe.(equilibrium inst).objective in
  check_true "potential near phi*"
    (r.Driver.final_potential -. phi_star < 0.01)

let test_stale_at_safe_period_converges () =
  let inst = Common.two_link ~beta:4. in
  let policy = Policy.uniform_linear inst in
  let t = Common.safe_period inst policy in
  let c = config ~phases:400 policy (Driver.Stale t) in
  let r = Driver.run inst c ~init:(vec [| 0.95; 0.05 |]) in
  check_true "two-link converges under staleness"
    (Equilibrium.wardrop_gap inst r.Driver.final_flow < 1e-3)

let test_equilibrium_is_stationary () =
  let inst = Common.braess () in
  let eq = Frank_wolfe.equilibrium inst in
  let c = config ~phases:10 (Policy.uniform_linear inst) (Driver.Stale 0.1) in
  let r = Driver.run inst c ~init:(Flow.project inst eq.Frank_wolfe.flow) in
  check_true "equilibrium barely moves"
    (Vec.dist1 r.Driver.final_flow eq.Frank_wolfe.flow < 1e-3)

let test_validation () =
  let inst = Common.braess () in
  let policy = Policy.uniform_linear inst in
  check_raises_invalid "negative phases" (fun () ->
      ignore
        (Driver.run inst
           (config ~phases:(-1) policy (Driver.Stale 0.1))
           ~init:(Flow.uniform inst)));
  check_raises_invalid "zero steps" (fun () ->
      ignore
        (Driver.run inst
           (config ~steps:0 policy (Driver.Stale 0.1))
           ~init:(Flow.uniform inst)));
  check_raises_invalid "infeasible init" (fun () ->
      ignore
        (Driver.run inst
           (config policy (Driver.Stale 0.1))
           ~init:(vec [| 1.; 1.; 1. |])));
  check_raises_invalid "non-positive period" (fun () ->
      ignore
        (Driver.run inst
           (config policy (Driver.Stale 0.))
           ~init:(Flow.uniform inst)))

let test_phase_length () =
  let inst = Common.braess () in
  let policy = Policy.uniform_linear inst in
  check_close "stale phase length" 0.25
    (Driver.phase_length (config policy (Driver.Stale 0.25)));
  check_close "fresh phase length" 1.
    (Driver.phase_length (config policy Driver.Fresh))

let test_default_config () =
  let inst = Common.braess () in
  let c =
    Driver.default_config ~policy:(Policy.replicator inst)
      ~staleness:Driver.Fresh
  in
  check_int "default phases" 200 c.Driver.phases;
  check_int "default steps" 20 c.Driver.steps_per_phase

let test_fresh_tracks_tiny_stale () =
  (* Fresh information is the T -> 0 limit: a run with very small T
     should track the Fresh run closely over the same horizon. *)
  let inst = Common.braess () in
  let policy = Policy.uniform_linear inst in
  let init = Common.biased_start inst in
  let fresh =
    Driver.run inst
      { Driver.policy; staleness = Driver.Fresh; phases = 5;
        steps_per_phase = 50; scheme = Integrator.Rk4 }
      ~init
  in
  let tiny_t =
    Driver.run inst
      { Driver.policy; staleness = Driver.Stale 0.02; phases = 250;
        steps_per_phase = 1; scheme = Integrator.Rk4 }
      ~init
  in
  (* Both simulated 5 time units. *)
  check_true "T -> 0 approaches fresh dynamics"
    (Vec.dist1 fresh.Driver.final_flow tiny_t.Driver.final_flow < 1e-3)

let prop_mass_conserved_along_runs =
  qcheck ~count:10 "qcheck: feasibility preserved along random stale runs"
    QCheck2.Gen.(pair (int_range 0 1_000) (int_range 0 2))
    (fun (seed, which) ->
      let inst = Common.layered_random ~seed in
      let policy =
        match which with
        | 0 -> Policy.uniform_linear inst
        | 1 -> Policy.replicator inst
        | _ -> Policy.best_response_approx inst ~c:3.
      in
      let t = Common.safe_period inst policy in
      let r =
        Driver.run inst
          { Driver.policy; staleness = Driver.Stale t; phases = 20;
            steps_per_phase = 5; scheme = Integrator.Rk4 }
          ~init:(Common.biased_start inst)
      in
      Array.for_all
        (fun rec_ -> Flow.is_feasible ~tol:1e-7 inst rec_.Driver.start_flow)
        r.Driver.records
      && Flow.is_feasible ~tol:1e-7 inst r.Driver.final_flow)

let prop_lemma4_on_random_instances =
  qcheck ~count:10 "qcheck: Lemma 4 holds phase-wise on random instances"
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let inst = Common.layered_random ~seed in
      let policy = Policy.uniform_linear inst in
      let t = Common.safe_period inst policy in
      let r =
        Driver.run inst
          { Driver.policy; staleness = Driver.Stale t; phases = 30;
            steps_per_phase = 10; scheme = Integrator.Rk4 }
          ~init:(Common.biased_start inst)
      in
      Array.for_all
        (fun rec_ ->
          rec_.Driver.virtual_gain <= 1e-9
          && rec_.Driver.delta_phi <= (rec_.Driver.virtual_gain /. 2.) +. 1e-9)
        r.Driver.records)

(* Synchronous rounds pinned against the hand-written reference loop,
   bit for bit at every phase start and at the end: a synchronous round
   is the stale dynamics integrated by one Euler step of h = 1. *)
let test_rounds_match_reference () =
  let check name inst policy ~per_update ~updates =
    let init = Common.biased_start inst in
    let r =
      Driver.run inst (rounds_config ~per_update policy ~updates) ~init
    in
    let expected = reference_rounds ~per_update inst policy ~updates init in
    let got = Common.phase_start_flows r in
    check_int (name ^ ": snapshot count") (Array.length expected)
      (Array.length got);
    Array.iteri
      (fun k f ->
        check_true
          (Printf.sprintf "%s: snapshot %d bit-identical" name k)
          (Array.for_all2 same_bits (Vec.to_array f)
             (Vec.to_array got.(k))))
      expected
  in
  let two_link = Common.two_link ~beta:4. in
  List.iter
    (fun kappa ->
      let policy =
        Policy.make ~sampling:Sampling.Uniform
          ~migration:
            (Migration.Scaled_linear
               { alpha = kappa /. Instance.ell_max two_link })
      in
      List.iter
        (fun per_update ->
          check
            (Printf.sprintf "two-link kappa=%g r=%d" kappa per_update)
            two_link policy ~per_update ~updates:(40 / per_update))
        [ 1; 3 ])
    [ 0.5; 1.; 4.; 16. ];
  let braess = Common.braess () in
  check "braess replicator r=4" braess (Policy.replicator braess)
    ~per_update:4 ~updates:10

let suite =
  [
    case "run shape" test_run_shape;
    case "fresh = tiny-T limit" test_fresh_tracks_tiny_stale;
    prop_mass_conserved_along_runs;
    prop_lemma4_on_random_instances;
    case "records chain" test_records_chain;
    case "final potential" test_final_potential_consistent;
    case "Lemma 4 along the run" test_smooth_policy_descends_at_safe_period;
    case "fresh convergence" test_fresh_converges_to_equilibrium;
    case "stale convergence at T*" test_stale_at_safe_period_converges;
    case "equilibrium stationary" test_equilibrium_is_stationary;
    case "validation" test_validation;
    case "phase length" test_phase_length;
    case "default config" test_default_config;
    case "synchronous rounds = reference loop" test_rounds_match_reference;
  ]
