(* Cross-commit trace identity of the update boundary (DESIGN.md §16).
   The driver routes its posts, kernel compiles, faults, outages and
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
      { inst = grid; staleness = Driver.Stale 0.25; faults = faulty;
        guard = Some Guard.repair } );
    ( "fresh colgen",
      { inst = layered; staleness = Driver.Fresh; faults = Faults.none;
        guard = None } );
    ( "stale colgen faults+outage, repair",
      { inst = layered; staleness = Driver.Stale 0.25; faults = faulty;
        guard = Some Guard.repair } );
    ( "fresh faults+outage, repair",
      { inst = grid; staleness = Driver.Fresh; faults = faulty;
        guard = Some Guard.repair } );
  ]

let digest run =
  let buf = Probe.Memory.create () in
  run (Probe.Memory.probe buf);
  Digest.to_hex
    (Digest.string (Trace_export.events_to_string (Probe.Memory.events buf)))

(* The driver digest of one spec. *)
let driver_digest s =
  let inst, policy, colgen = s.inst () in
  let cfg =
    { Driver.policy; staleness = s.staleness; phases = 12;
      steps_per_phase = 6; scheme = Integrator.Rk4 }
  in
  digest (fun probe ->
      ignore
        (Driver.run ~probe ~faults:(Faults.plan s.faults) ?guard:s.guard
           ?colgen inst cfg ~init:(Flow.uniform inst)))

let expected =
  [
    ("stale faults+outage, repair", "a481cbf81e6d5a9a696e8d8e0eb13bfc");
    ("fresh colgen", "59eb5ae44219f386f634eabb2dab2c86");
    ("stale colgen faults+outage, repair", "75de7a42be0a5c58f43c81db4b8269af");
    ("fresh faults+outage, repair", "5c8fddb07acc459c8b4203dad4bcefac");
  ]

let test_trace_digests () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check string) (name ^ " / driver")
        (Option.value ~default:"" (List.assoc_opt name expected))
        (driver_digest s))
    specs

let suite = [ case "probe-stream digests pinned" test_trace_digests ]
