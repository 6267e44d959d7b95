(* Cross-commit trace identity of the update boundary (DESIGN.md §16).
   Every driver routes its posts, kernel compiles, faults, outages and
   column growth through [Boundary]; the MD5 of each run's JSONL probe
   stream is pinned to a hex constant, so a refactor that reorders or
   drops a single boundary event fails here, not only in same-commit
   differentials.  Re-capture a constant only for an intended change of
   the event stream, and say so in the change log. *)

open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Probe = Staleroute_obs.Probe
module Trace_export = Staleroute_obs.Trace_export

type spec = {
  inst : unit -> Instance.t * Policy.t * Path_pool.t option;
  staleness : Driver.staleness;
  rounds_per_update : int;
  faults : Faults.spec;
  guard : Guard.t option;
}

let faulty =
  Faults.make ~drop:0.2 ~delay:0.2 ~delay_fraction:0.4 ~partial:0.2
    ~noise:0.2 ~noise_sigma:0.3 ~outage:0.15 ~outage_mttr:2. ~outage_seed:5
    ~seed:9 ()

let grid () =
  let inst = Common.grid33 () in
  (inst, Policy.uniform_linear inst, None)

(* The colgen workload: a seeded layered DAG grown from its
   per-commodity shortest path. *)
let layered () =
  let layers = 3 in
  let w = Test_path_pool.workload ~layers ~width:3 ~skip_prob:0.15 13 in
  let pool = Test_path_pool.pool_of w in
  (Path_pool.instance pool, Test_path_pool.colgen_policy ~layers w, Some pool)

let specs =
  [
    ( "stale faults+outage, repair",
      { inst = grid; staleness = Driver.Stale 0.25; rounds_per_update = 3;
        faults = faulty; guard = Some Guard.repair } );
    ( "fresh colgen",
      { inst = layered; staleness = Driver.Fresh; rounds_per_update = 3;
        faults = Faults.none; guard = None } );
    ( "stale colgen faults+outage, repair",
      { inst = layered; staleness = Driver.Stale 0.25; rounds_per_update = 3;
        faults = faulty; guard = Some Guard.repair } );
    ( "fresh faults+outage, repair",
      { inst = grid; staleness = Driver.Fresh; rounds_per_update = 1;
        faults = faulty; guard = Some Guard.repair } );
  ]

let digest run =
  let buf = Probe.Memory.create () in
  run (Probe.Memory.probe buf);
  Digest.to_hex
    (Digest.string (Trace_export.events_to_string (Probe.Memory.events buf)))

(* [driver], [trajectory], [discrete] digests of one spec. *)
let digests s =
  let cfg (policy : Policy.t) =
    { Driver.policy; staleness = s.staleness; phases = 12;
      steps_per_phase = 6; scheme = Integrator.Rk4 }
  in
  let faults = Faults.plan s.faults and guard = s.guard in
  let driver probe =
    let inst, policy, colgen = s.inst () in
    ignore
      (Driver.run ~probe ~faults ?guard ?colgen inst (cfg policy)
         ~init:(Flow.uniform inst))
  in
  let trajectory probe =
    let inst, policy, colgen = s.inst () in
    ignore
      (Trajectory.record ~probe ~faults ?guard ?colgen inst (cfg policy)
         ~init:(Flow.uniform inst) ~samples_per_phase:3)
  in
  let discrete probe =
    let inst, policy, colgen = s.inst () in
    ignore
      (Discrete.run ~probe ~faults ?guard ?colgen inst
         { Discrete.policy; rounds = 36;
           rounds_per_update = s.rounds_per_update }
         ~init:(Flow.uniform inst))
  in
  [ ("driver", digest driver); ("trajectory", digest trajectory);
    ("discrete", digest discrete) ]

let expected =
  [
    ( "stale faults+outage, repair / driver",
      "a481cbf81e6d5a9a696e8d8e0eb13bfc" );
    ( "stale faults+outage, repair / trajectory",
      "c137d14f3548b5964b2da834322c58bd" );
    ( "stale faults+outage, repair / discrete",
      "8f9943ce502a777a201486cf506d5cb7" );
    ( "fresh colgen / driver",
      "59eb5ae44219f386f634eabb2dab2c86" );
    ( "fresh colgen / trajectory",
      "53693d563c9e7d73c515539f9ec7a750" );
    ( "fresh colgen / discrete",
      "030a4a175268f6c2de49ea6a10ba64cc" );
    ( "stale colgen faults+outage, repair / driver",
      "75de7a42be0a5c58f43c81db4b8269af" );
    ( "stale colgen faults+outage, repair / trajectory",
      "6d812774d1e550adb3cd8b88c2930c80" );
    ( "stale colgen faults+outage, repair / discrete",
      "33f73273675dcbab9a8cae97c8e54f42" );
    ( "fresh faults+outage, repair / driver",
      "5c8fddb07acc459c8b4203dad4bcefac" );
    ( "fresh faults+outage, repair / trajectory",
      "fe43f976cc7b254db7b24d33e00a57b9" );
    ( "fresh faults+outage, repair / discrete",
      "eded78cdeac9105142d5171e8ce85d03" );
  ]

let test_trace_digests () =
  List.iter
    (fun (name, s) ->
      List.iter
        (fun (who, hex) ->
          let label = Printf.sprintf "%s / %s" name who in
          Alcotest.(check string) label
            (Option.value ~default:"" (List.assoc_opt label expected))
            hex)
        (digests s))
    specs

let suite = [ case "probe-stream digests pinned" test_trace_digests ]
