(* Trajectory analysis over a driver run: the potential-gap series and
   the convergence-rate readings of [Convergence]. *)

open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common

let config inst ?(phases = 10) staleness =
  {
    Driver.policy = Policy.uniform_linear inst;
    staleness;
    phases;
    steps_per_phase = 8;
    scheme = Integrator.Rk4;
  }

let test_record_shape () =
  let inst = Common.braess () in
  let r =
    Driver.run inst
      (config inst (Driver.Stale 0.25))
      ~init:(Flow.uniform inst)
  in
  let gap = Convergence.potential_gap r in
  (* One sample per phase start, plus the final flow. *)
  check_int "sample count" 11 (Array.length gap);
  check_close "starts at zero" 0. (fst gap.(0));
  check_close "ends at the horizon" 2.5 (fst gap.(10));
  Array.iteri
    (fun i (t, _) ->
      if i > 0 then check_true "times increase" (t > fst gap.(i - 1)))
    gap;
  Array.iter
    (fun (p : Driver.phase_record) ->
      check_true "flows feasible"
        (Flow.is_feasible ~tol:1e-8 inst p.Driver.start_flow))
    r.Driver.records

let test_potential_gap_decreases () =
  let inst = Common.braess () in
  let r =
    Driver.run inst
      (config inst ~phases:40 Driver.Fresh)
      ~init:(Common.biased_start inst)
  in
  let gap = Convergence.potential_gap r in
  Array.iter (fun (_, y) -> check_true "gap nonnegative" (y >= -1e-9)) gap;
  let _, first = gap.(0) and _, last = gap.(Array.length gap - 1) in
  check_true "gap shrank" (last < first /. 2.)

let test_fit_exponential_exact () =
  let points =
    Array.init 20 (fun i ->
        let t = float_of_int i /. 4. in
        (t, 3. *. exp (-0.7 *. t)))
  in
  match Convergence.fit_exponential_rate points with
  | Some r -> check_close ~eps:1e-9 "recovers the rate" 0.7 r
  | None -> Alcotest.fail "fit must succeed"

let test_fit_handles_nonpositive_points () =
  let points = [| (0., 1.); (1., 0.); (2., exp (-2.)); (3., -1.) |] in
  match Convergence.fit_exponential_rate points with
  | Some r -> check_close ~eps:1e-6 "ignores nonpositive samples" 1. r
  | None -> Alcotest.fail "fit must succeed on the positive part"

let test_fit_degenerate () =
  check_true "single point" (Convergence.fit_exponential_rate [| (0., 1.) |] = None);
  check_true "no positive points"
    (Convergence.fit_exponential_rate [| (0., -1.); (1., 0.) |] = None);
  check_true "constant time"
    (Convergence.fit_exponential_rate [| (1., 1.); (1., 2.) |] = None)

let test_time_to_threshold () =
  let points = [| (0., 5.); (1., 2.); (2., 0.5); (3., 0.1) |] in
  check_true "first sustained crossing"
    (Convergence.time_to_threshold points ~threshold:1. = Some 2.);
  check_true "never crosses"
    (Convergence.time_to_threshold points ~threshold:0.01 = None);
  (* A temporary dip does not count. *)
  let bumpy = [| (0., 5.); (1., 0.5); (2., 3.); (3., 0.5) |] in
  check_true "dip ignored"
    (Convergence.time_to_threshold bumpy ~threshold:1. = Some 3.)

let suite =
  [
    case "record shape" test_record_shape;
    case "potential gap decreases" test_potential_gap_decreases;
    case "exponential fit exact" test_fit_exponential_exact;
    case "fit ignores nonpositive" test_fit_handles_nonpositive_points;
    case "fit degenerate input" test_fit_degenerate;
    case "time to threshold" test_time_to_threshold;
  ]
