(* Numeric guardrails: parsing, the three policies at an unhealthy
   boundary, and the end-to-end driver behaviour on a NaN-producing
   custom policy. *)

open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics

let test_of_string () =
  List.iter
    (fun (s, expect) ->
      match Guard.of_string s with
      | Error e -> Alcotest.failf "%S should parse, got %s" s e
      | Ok g ->
          check_true
            (Printf.sprintf "%S parses to %s" s expect)
            (Guard.to_string g = expect))
    [
      ("fail-fast", "fail-fast");
      ("repair", "repair");
      ("ignore", "ignore");
      ("repair:1e-9", "repair:1e-09");
    ];
  List.iter
    (fun s ->
      match Guard.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" s)
    [ "bogus"; "repair:"; "repair:nan"; "repair:-1"; "fail-fast:0" ]

let test_make_validates () =
  check_raises_invalid "tol must be positive" (fun () ->
      ignore (Guard.make ~tol:0. Guard.Repair));
  check_raises_invalid "tol must be finite" (fun () ->
      ignore (Guard.make ~tol:Float.infinity Guard.Repair))

let test_healthy_flow_passes () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  let buf = Probe.Memory.create () in
  Guard.check Guard.fail_fast ~probe:(Probe.Memory.probe buf) inst ~index:0
    ~time:0. f;
  check_int "no events for a healthy flow" 0 (Probe.Memory.length buf);
  Alcotest.(check (array (float 0.)))
    "flow untouched"
    (Staleroute_util.Vec.to_array (Flow.uniform inst))
    (Staleroute_util.Vec.to_array f)

let dirty_flow inst =
  let f = Flow.uniform inst in
  Staleroute_util.Vec.set f 0 Float.nan;
  f

let test_fail_fast_diagnostic () =
  let inst = Common.braess () in
  match
    Guard.check Guard.fail_fast inst ~index:3 ~time:1.5 (dirty_flow inst)
  with
  | exception Guard.Unhealthy d ->
      check_int "index recorded" 3 d.Guard.index;
      check_close "time recorded" 1.5 d.Guard.time;
      check_int "commodity recorded" 0 d.Guard.commodity;
      check_true "offending path listed" (List.mem 0 d.Guard.paths)
  | () -> Alcotest.fail "expected Guard.Unhealthy"

let test_repair_restores_feasibility () =
  let inst = Common.two_commodity () in
  let f = Flow.uniform inst in
  Staleroute_util.Vec.set f 0 Float.neg_infinity;
  Staleroute_util.Vec.set f 2 (-0.4);
  let metrics = Metrics.create () in
  let repairs = Metrics.counter metrics "guard_repairs" in
  let buf = Probe.Memory.create () in
  Guard.check Guard.repair ~probe:(Probe.Memory.probe buf) ~repairs inst
    ~index:1 ~time:0.5 f;
  check_true "repaired flow feasible" (Flow.is_feasible ~tol:1e-9 inst f);
  check_int "one repair counted" 1 (Metrics.count repairs);
  check_int "one Guard_trip emitted" 1
    (Probe.Memory.count buf (function
      | Probe.Guard_trip { action = "repair"; _ } -> true
      | _ -> false))

let test_repair_spreads_vanished_mass () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  Staleroute_util.Vec.fill f Float.nan;
  Guard.check Guard.repair inst ~index:0 ~time:0. f;
  check_true "all-NaN commodity repaired to uniform"
    (Flow.is_feasible ~tol:1e-9 inst f);
  Staleroute_util.Vec.iteri (fun _ x -> check_close "uniform spread" (1. /. 3.) x) f

let test_ignore_observes_only () =
  let inst = Common.braess () in
  let f = dirty_flow inst in
  let buf = Probe.Memory.create () in
  Guard.check Guard.ignore_ ~probe:(Probe.Memory.probe buf) inst ~index:2
    ~time:1. f;
  check_true "flow left dirty" (Float.is_nan (Staleroute_util.Vec.get f 0));
  check_int "Guard_trip emitted" 1
    (Probe.Memory.count buf (function
      | Probe.Guard_trip { action = "ignore"; _ } -> true
      | _ -> false))

(* End to end: a NaN logit parameter makes every sampling probability
   NaN, at every board the run posts. *)
let nan_policy =
  Policy.make ~sampling:(Sampling.Logit Float.nan)
    ~migration:(Migration.Scaled_linear { alpha = 1. })

let nan_config phases =
  {
    Driver.policy = nan_policy;
    staleness = Driver.Stale 0.25;
    phases;
    steps_per_phase = 4;
    scheme = Integrator.Rk4;
  }

let test_driver_fail_fast () =
  let inst = Common.two_link ~beta:4. in
  match
    Driver.run ~guard:Guard.fail_fast inst (nan_config 3)
      ~init:(Common.biased_start inst)
  with
  | exception Guard.Unhealthy d -> check_int "trips at phase 0" 0 d.Guard.index
  | _ -> Alcotest.fail "expected Guard.Unhealthy from the driver"

let test_driver_repair_keeps_finite () =
  let inst = Common.two_link ~beta:4. in
  List.iter
    (fun phases ->
      let metrics = Metrics.create () in
      let result =
        Driver.run ~metrics ~guard:Guard.repair inst (nan_config phases)
          ~init:(Common.biased_start inst)
      in
      check_true "final flow finite"
        (Staleroute_util.Vec.for_all Float.is_finite result.Driver.final_flow);
      check_int "one repair per phase" phases
        (Metrics.count (Metrics.counter metrics "guard_repairs")))
    [ 3; 4 ]

let test_driver_unguarded_nan_propagates () =
  (* Without a guard the NaN silently poisons the run — the behaviour
     the guard exists to surface. *)
  let inst = Common.two_link ~beta:4. in
  let result =
    Driver.run inst (nan_config 2) ~init:(Common.biased_start inst)
  in
  check_true "unguarded run ends non-finite"
    (not
       (Staleroute_util.Vec.for_all Float.is_finite result.Driver.final_flow))

(* --- Network partition (topology outages, DESIGN.md §14) --- *)

let test_partition_fail_fast () =
  let inst = Common.braess () in
  (match
     Guard.check_partition ~guard:Guard.fail_fast inst ~index:4 ~time:2. [ 0 ]
   with
  | exception Guard.Unhealthy d ->
      check_int "index recorded" 4 d.Guard.index;
      check_close "time recorded" 2. d.Guard.time;
      check_int "commodity recorded" 0 d.Guard.commodity;
      check_true "cause is the partition"
        (d.Guard.cause = Guard.Network_partitioned);
      check_int "every path of the commodity listed" 3
        (List.length d.Guard.paths)
  | () -> Alcotest.fail "expected Guard.Unhealthy");
  (* Without a guard a partition still dies — there is no silent
     default for a commodity with no surviving path. *)
  match Guard.check_partition inst ~index:0 ~time:0. [ 0 ] with
  | exception Guard.Unhealthy d ->
      check_true "cause is the partition"
        (d.Guard.cause = Guard.Network_partitioned)
  | () -> Alcotest.fail "expected Guard.Unhealthy without a guard"

let test_partition_tolerant_policies_observe () =
  let inst = Common.braess () in
  List.iter
    (fun guard ->
      let buf = Probe.Memory.create () in
      Guard.check_partition ~guard ~probe:(Probe.Memory.probe buf) inst
        ~index:1 ~time:0.5 [ 0 ];
      check_int "partition Guard_trip emitted" 1
        (Probe.Memory.count buf (function
          | Probe.Guard_trip { action = "partition"; worst; _ } ->
              worst = Float.infinity
          | _ -> false)))
    [ Guard.repair; Guard.ignore_ ];
  (* An empty partition list is free: no events, no raise. *)
  let buf = Probe.Memory.create () in
  Guard.check_partition ~guard:Guard.fail_fast ~probe:(Probe.Memory.probe buf)
    inst ~index:0 ~time:0. [];
  check_int "no events when nothing is partitioned" 0 (Probe.Memory.length buf)

let outage_config phases =
  {
    Driver.policy = Policy.uniform_linear (Common.two_link ~beta:4.);
    staleness = Driver.Stale 0.25;
    phases;
    steps_per_phase = 4;
    scheme = Integrator.Rk4;
  }

let test_driver_partition_fail_fast () =
  (* Outage rate 1: both links die at phase 0, stranding the commodity. *)
  let inst = Common.two_link ~beta:4. in
  let faults = Faults.plan (Faults.make ~outage:1. ~outage_mttr:4. ()) in
  match
    Driver.run ~faults ~guard:Guard.fail_fast inst (outage_config 3)
      ~init:(Common.biased_start inst)
  with
  | exception Guard.Unhealthy d ->
      check_int "trips at phase 0" 0 d.Guard.index;
      check_true "cause is the partition"
        (d.Guard.cause = Guard.Network_partitioned)
  | _ -> Alcotest.fail "expected a partition trip from the driver"

let test_driver_partition_ignore_survives () =
  let inst = Common.two_link ~beta:4. in
  let faults = Faults.plan (Faults.make ~outage:1. ~outage_mttr:4. ()) in
  let buf = Probe.Memory.create () in
  let result =
    Driver.run
      ~probe:(Probe.Memory.probe buf)
      ~faults ~guard:Guard.ignore_ inst (outage_config 6)
      ~init:(Common.biased_start inst)
  in
  check_true "run completes with a feasible flow"
    (Flow.is_feasible ~tol:1e-9 inst result.Driver.final_flow);
  check_true "edge failures announced"
    (Probe.Memory.count buf (function
       | Probe.Edge_down _ -> true
       | _ -> false)
    > 0);
  check_true "partition trips announced"
    (Probe.Memory.count buf (function
       | Probe.Guard_trip { action = "partition"; _ } -> true
       | _ -> false)
    > 0)

let suite =
  [
    case "of_string" test_of_string;
    case "make validates tol" test_make_validates;
    case "healthy flow passes" test_healthy_flow_passes;
    case "fail-fast diagnostic" test_fail_fast_diagnostic;
    case "repair restores feasibility" test_repair_restores_feasibility;
    case "repair spreads vanished mass" test_repair_spreads_vanished_mass;
    case "ignore observes only" test_ignore_observes_only;
    case "driver fail-fast" test_driver_fail_fast;
    case "driver repair keeps finite" test_driver_repair_keeps_finite;
    case "unguarded NaN propagates" test_driver_unguarded_nan_propagates;
    case "partition fail-fast" test_partition_fail_fast;
    case "partition tolerant policies" test_partition_tolerant_policies_observe;
    case "driver partition fail-fast" test_driver_partition_fail_fast;
    case "driver partition ignore survives" test_driver_partition_ignore_survives;
  ]
