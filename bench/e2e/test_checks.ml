(* Every benchmark check must reject a deliberately broken input, and
   accept the genuine run it was derived from. *)

open Staleroute_wardrop
open Staleroute_dynamics
module Vec = Staleroute_util.Vec
module Common = Staleroute_experiments.Common

let failures = ref 0

let expect ~name ~fails outcome =
  match (fails, outcome) with
  | true, Some _ | false, None -> ()
  | true, None ->
      incr failures;
      Printf.printf "FAIL %s: the check accepted a broken input\n" name
  | false, Some reason ->
      incr failures;
      Printf.printf "FAIL %s: the check rejected a genuine input: %s\n" name
        reason

let with_entry f i x =
  let g = Vec.copy f in
  Vec.set g i x;
  g

let () =
  let inst = Common.parallel 4 in
  let policy = Policy.uniform_linear inst in
  let r =
    Common.run inst policy
      (Driver.Stale (Common.safe_period inst policy))
      ~phases:20 ~init:(Common.biased_start inst) ()
  in
  let f = r.final_flow in
  expect ~name:"genuine run" ~fails:false
    (match Checks.result ~lemma4:true r with [] -> None | e :: _ -> Some e);
  expect ~name:"non-finite flow" ~fails:true
    (Checks.feasible inst (with_entry f 0 Float.nan));
  expect ~name:"negative flow" ~fails:true
    (Checks.feasible inst (with_entry f 0 (-0.5)));
  expect ~name:"demand not met" ~fails:true
    (Checks.feasible inst (Vec.scale 0.5 f));
  expect ~name:"final_potential one ulp off" ~fails:true
    (Checks.potential inst f ~final_potential:(Float.succ r.final_potential));
  expect ~name:"flows one ulp apart" ~fails:true
    (Checks.identical ~what:"rerun" f (with_entry f 1 (Float.succ (Vec.get f 1))));
  expect ~name:"flows of different dimension" ~fails:true
    (Checks.identical ~what:"rerun" f (Vec.extend f ~dim:(Vec.dim f + 1)));
  expect ~name:"identical flows" ~fails:false
    (Checks.identical ~what:"rerun" f (Vec.copy f));
  let bad = Array.copy r.records in
  let k = Array.length bad / 2 in
  bad.(k) <-
    { (bad.(k)) with delta_phi = (0.5 *. bad.(k).virtual_gain) +. 1e-6 };
  expect ~name:"Lemma 4 violated" ~fails:true (Checks.lemma4 bad);
  let fw = Frank_wolfe.equilibrium inst in
  expect ~name:"Phi above the FW bound" ~fails:false
    (Checks.above_reference ~phi_final:r.final_potential fw);
  expect ~name:"Phi below the FW bound" ~fails:true
    (Checks.above_reference
       ~phi_final:(fw.objective -. fw.gap -. 1e-6)
       fw);
  if !failures > 0 then exit 1
