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
  let t =
    Trajectory.record inst
      (config inst (Driver.Stale 0.25))
      ~init:(Flow.uniform inst) ~samples_per_phase:4
  in
  (* 1 initial + phases * samples_per_phase. *)
  check_int "sample count" 41 (Array.length t);
  check_close "starts at zero" 0. t.(0).Trajectory.time;
  check_close "ends at the horizon" 2.5 t.(40).Trajectory.time;
  Array.iteri
    (fun i s ->
      if i > 0 then
        check_true "times increase"
          (s.Trajectory.time > t.(i - 1).Trajectory.time);
      check_true "flows feasible"
        (Flow.is_feasible ~tol:1e-8 inst s.Trajectory.flow))
    t

let test_record_matches_driver_at_phase_starts () =
  let inst = Common.braess () in
  let c = config inst (Driver.Stale 0.25) in
  let init = Common.biased_start inst in
  let traj = Trajectory.record inst c ~init ~samples_per_phase:4 in
  let run = Driver.run inst c ~init in
  Array.iter
    (fun r ->
      let k = r.Driver.index in
      let sample = traj.(4 * k) in
      check_close "aligned time" r.Driver.start_time sample.Trajectory.time;
      check_true "aligned state"
        (Staleroute_util.Vec.dist1 r.Driver.start_flow sample.Trajectory.flow
        < 1e-6))
    run.Driver.records

let test_validation () =
  let inst = Common.braess () in
  let stale = config inst (Driver.Stale 0.25) in
  let record ?(init = Flow.uniform inst) ?(samples_per_phase = 2) c =
    ignore (Trajectory.record inst c ~init ~samples_per_phase)
  in
  check_raises_invalid "samples_per_phase" (fun () ->
      record ~samples_per_phase:0 stale);
  check_raises_invalid "infeasible init" (fun () ->
      record ~init:(vec [| 3.; 0.; 0. |]) stale);
  check_raises_invalid "steps_per_phase" (fun () ->
      record { stale with Driver.steps_per_phase = 0 });
  check_raises_invalid "negative phases" (fun () ->
      record { stale with Driver.phases = -1 })

let test_potential_gap_decreases () =
  let inst = Common.braess () in
  let traj =
    Trajectory.record inst
      (config inst ~phases:40 Driver.Fresh)
      ~init:(Common.biased_start inst) ~samples_per_phase:2
  in
  let gap = Trajectory.potential_gap inst traj in
  Array.iter (fun (_, y) -> check_true "gap nonnegative" (y >= -1e-9)) gap;
  let _, first = gap.(0) and _, last = gap.(Array.length gap - 1) in
  check_true "gap shrank" (last < first /. 2.)

let test_series_observable () =
  let inst = Common.braess () in
  let traj =
    Trajectory.record inst
      (config inst ~phases:3 (Driver.Stale 0.5))
      ~init:(Flow.uniform inst) ~samples_per_phase:2
  in
  let mass = Trajectory.series Staleroute_util.Vec.sum traj in
  Array.iter (fun (_, m) -> check_close ~eps:1e-9 "unit mass" 1. m) mass

let test_fit_exponential_exact () =
  let points =
    Array.init 20 (fun i ->
        let t = float_of_int i /. 4. in
        (t, 3. *. exp (-0.7 *. t)))
  in
  match Trajectory.fit_exponential_rate points with
  | Some r -> check_close ~eps:1e-9 "recovers the rate" 0.7 r
  | None -> Alcotest.fail "fit must succeed"

let test_fit_handles_nonpositive_points () =
  let points = [| (0., 1.); (1., 0.); (2., exp (-2.)); (3., -1.) |] in
  match Trajectory.fit_exponential_rate points with
  | Some r -> check_close ~eps:1e-6 "ignores nonpositive samples" 1. r
  | None -> Alcotest.fail "fit must succeed on the positive part"

let test_fit_degenerate () =
  check_true "single point" (Trajectory.fit_exponential_rate [| (0., 1.) |] = None);
  check_true "no positive points"
    (Trajectory.fit_exponential_rate [| (0., -1.); (1., 0.) |] = None);
  check_true "constant time"
    (Trajectory.fit_exponential_rate [| (1., 1.); (1., 2.) |] = None)

let test_time_to_threshold () =
  let points = [| (0., 5.); (1., 2.); (2., 0.5); (3., 0.1) |] in
  check_true "first sustained crossing"
    (Trajectory.time_to_threshold points ~threshold:1. = Some 2.);
  check_true "never crosses"
    (Trajectory.time_to_threshold points ~threshold:0.01 = None);
  (* A temporary dip does not count. *)
  let bumpy = [| (0., 5.); (1., 0.5); (2., 3.); (3., 0.5) |] in
  check_true "dip ignored"
    (Trajectory.time_to_threshold bumpy ~threshold:1. = Some 3.)

let test_faulted_record_matches_driver () =
  (* The trajectory recorder and the driver must stay in lockstep under
     the same fault plan: phase-start flows agree to integrator
     tolerance and the recorder's samples stay feasible. *)
  let inst = Common.two_link ~beta:4. in
  let c = config inst (Driver.Stale 0.25) in
  let init = Common.biased_start inst in
  let faults =
    Faults.plan
      (Faults.make ~drop:0.25 ~delay:0.25 ~partial:0.2 ~noise:0.2 ~seed:13 ())
  in
  let spp = 8 in
  let traj = Trajectory.record inst c ~faults ~init ~samples_per_phase:spp in
  let run = Driver.run inst c ~faults ~init in
  Array.iteri
    (fun k (r : Driver.phase_record) ->
      check_true
        (Printf.sprintf "faulted phase %d start flow agrees" k)
        (Staleroute_util.Vec.approx_equal ~atol:1e-9 r.Driver.start_flow
           traj.(k * spp).Trajectory.flow))
    run.Driver.records;
  Array.iter
    (fun s ->
      check_true "faulted samples stay feasible"
        (Flow.is_feasible ~tol:1e-8 inst s.Trajectory.flow))
    traj;
  (* Determinism: a second recording is identical. *)
  let traj2 = Trajectory.record inst c ~faults ~init ~samples_per_phase:spp in
  Array.iteri
    (fun i s ->
      check_true "faulted recording deterministic"
        (Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           (Staleroute_util.Vec.to_array s.Trajectory.flow)
           (Staleroute_util.Vec.to_array traj2.(i).Trajectory.flow)))
    traj

let suite =
  [
    case "record shape" test_record_shape;
    case "record matches driver" test_record_matches_driver_at_phase_starts;
    case "validation" test_validation;
    case "potential gap decreases" test_potential_gap_decreases;
    case "series observable" test_series_observable;
    case "exponential fit exact" test_fit_exponential_exact;
    case "fit ignores nonpositive" test_fit_handles_nonpositive_points;
    case "fit degenerate input" test_fit_degenerate;
    case "time to threshold" test_time_to_threshold;
    case "faulted record matches driver" test_faulted_record_matches_driver;
  ]
