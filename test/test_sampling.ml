open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common

let setup () =
  let inst = Common.parallel 4 in
  let flow = vec [| 0.4; 0.3; 0.2; 0.1 |] in
  let latencies = Flow.path_latencies inst flow in
  (inst, flow, latencies)

let dist rule =
  let inst, flow, latencies = setup () in
  Sampling.distribution rule inst ~commodity:0 ~flow ~latencies

let sums_to_one name d =
  check_close ~eps:1e-9 (name ^ " sums to 1") 1.
    (Staleroute_util.Numerics.kahan_sum d)

let test_uniform () =
  let d = dist Sampling.Uniform in
  sums_to_one "uniform" d;
  Array.iter (fun p -> check_close "uniform prob" 0.25 p) d

let test_proportional () =
  let d = dist Sampling.Proportional in
  sums_to_one "proportional" d;
  check_close "matches flow share" 0.4 d.(0);
  check_close "matches flow share" 0.1 d.(3)

let test_proportional_zero_flow_path () =
  let inst, _, latencies = setup () in
  let flow = vec [| 1.; 0.; 0.; 0. |] in
  let d =
    Sampling.distribution Sampling.Proportional inst ~commodity:0 ~flow
      ~latencies
  in
  check_close "dead path never sampled" 0. d.(1);
  check_close "alive path always sampled" 1. d.(0)

let test_logit_prefers_fast_paths () =
  let inst, flow, latencies = setup () in
  let d =
    Sampling.distribution (Sampling.Logit 5.) inst ~commodity:0 ~flow
      ~latencies
  in
  sums_to_one "logit" d;
  (* parallel-4 latencies at this flow: link order by latency varies;
     verify that lower latency implies no smaller probability. *)
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ ->
          if latencies.(i) < latencies.(j) then
            check_true "logit monotone" (d.(i) >= d.(j) -. 1e-12))
        d)
    d

let test_logit_limits () =
  let inst, flow, _ = setup () in
  (* Latencies with a unique argmin (the flow-derived ones tie). *)
  let latencies = [| 0.2; 0.7; 0.8; 0.6 |] in
  (* c = 0: logit degenerates to uniform. *)
  let d0 =
    Sampling.distribution (Sampling.Logit 0.) inst ~commodity:0 ~flow
      ~latencies
  in
  Array.iter (fun p -> check_close "c=0 is uniform" 0.25 p) d0;
  (* c huge: all mass on the argmin. *)
  let dinf =
    Sampling.distribution (Sampling.Logit 1e6) inst ~commodity:0 ~flow
      ~latencies
  in
  let best = ref 0 in
  Array.iteri (fun i l -> if l < latencies.(!best) then best := i) latencies;
  check_close ~eps:1e-6 "c=inf is argmin" 1. dinf.(!best)

let test_logit_numerical_stability () =
  (* Huge latencies must not produce NaN via exp overflow. *)
  let inst, flow, _ = setup () in
  let latencies = [| 1e8; 2e8; 3e8; 4e8 |] in
  let d =
    Sampling.distribution (Sampling.Logit 1.) inst ~commodity:0 ~flow
      ~latencies
  in
  check_true "no NaN" (Array.for_all (fun p -> Float.is_finite p) d);
  sums_to_one "stable logit" d

let test_mixed_rule () =
  let inst, flow, latencies = setup () in
  let d =
    Sampling.distribution (Sampling.Mixed 0.4) inst ~commodity:0 ~flow
      ~latencies
  in
  sums_to_one "mixed" d;
  (* gamma/m + (1-gamma) f_Q. *)
  check_close "mixed formula" ((0.4 /. 4.) +. (0.6 *. 0.4)) d.(0);
  check_close "mixed formula (last)" ((0.4 /. 4.) +. (0.6 *. 0.1)) d.(3);
  (* Limits: gamma = 1 is uniform, gamma = 0 is proportional. *)
  let u =
    Sampling.distribution (Sampling.Mixed 1.) inst ~commodity:0 ~flow
      ~latencies
  in
  Array.iter (fun p -> check_close "gamma=1 is uniform" 0.25 p) u;
  let pr =
    Sampling.distribution (Sampling.Mixed 0.) inst ~commodity:0 ~flow
      ~latencies
  in
  check_close "gamma=0 is proportional" 0.4 pr.(0)

let test_mixed_escapes_boundary () =
  (* Unlike pure proportional sampling, the mixture gives dead paths a
     chance. *)
  let inst, _, latencies = setup () in
  let flow = vec [| 1.; 0.; 0.; 0. |] in
  let d =
    Sampling.distribution (Sampling.Mixed 0.2) inst ~commodity:0 ~flow
      ~latencies
  in
  check_close "dead path reachable" 0.05 d.(1);
  check_true "mixed positive" (Sampling.positive (Sampling.Mixed 0.2));
  check_false "degenerate mixture not positive"
    (Sampling.positive (Sampling.Mixed 0.))

let test_mixed_validation () =
  let inst, flow, latencies = setup () in
  check_raises_invalid "gamma > 1" (fun () ->
      ignore
        (Sampling.distribution (Sampling.Mixed 1.5) inst ~commodity:0 ~flow
           ~latencies))

let test_metadata () =
  check_true "uniform positive" (Sampling.positive Sampling.Uniform);
  check_true "logit positive" (Sampling.positive (Sampling.Logit 3.));
  check_true "names distinct"
    (Sampling.name Sampling.Uniform <> Sampling.name Sampling.Proportional)

let prop_distributions_are_distributions =
  qcheck ~count:100 "qcheck: built-in sampling rules are distributions"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 2))
    (fun (seed, which) ->
      let inst = Common.parallel 4 in
      let r = Staleroute_util.Rng.create ~seed () in
      let flow = Flow.random inst r in
      let latencies = Flow.path_latencies inst flow in
      let rule =
        match which with
        | 0 -> Sampling.Uniform
        | 1 -> Sampling.Proportional
        | _ -> Sampling.Logit 2.
      in
      let d =
        Sampling.distribution rule inst ~commodity:0 ~flow ~latencies
      in
      Array.for_all (fun p -> p >= -1e-12) d
      && Float.abs (Staleroute_util.Numerics.kahan_sum d -. 1.) < 1e-9)

(* Each rule's σ written out from its definition, elementwise, with
   the logit weights normalised by [Numerics.kahan_sum]. *)
let reference rule inst ~flow ~latencies =
  let ps = Instance.paths_of_commodity inst 0 in
  let m = float_of_int (Array.length ps) and r = Instance.demand inst 0 in
  let share q = Staleroute_util.Vec.get flow q /. r in
  match rule with
  | Sampling.Uniform -> Array.map (fun _ -> 1. /. m) ps
  | Sampling.Proportional -> Array.map share ps
  | Sampling.Logit c ->
      let scores = Array.map (fun q -> -.c *. latencies.(q)) ps in
      let top = Array.fold_left Float.max neg_infinity scores in
      let w = Array.map (fun x -> exp (x -. top)) scores in
      let total = Staleroute_util.Numerics.kahan_sum w in
      Array.map (fun x -> x /. total) w
  | Sampling.Mixed gamma ->
      Array.map
        (fun q ->
          (gamma /. m) +. ((1. -. gamma) *. Staleroute_util.Vec.get flow q /. r))
        ps

let test_distribution_into_matches () =
  let inst, flow, latencies = setup () in
  List.iter
    (fun rule ->
      let expected = reference rule inst ~flow ~latencies in
      check_true
        (Sampling.name rule ^ ": distribution = definition, bitwise")
        (Array.for_all2
           (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           expected
           (Sampling.distribution rule inst ~commodity:0 ~flow ~latencies));
      (* Oversized buffer: only the first |P_i| cells are written. *)
      let dst = Array.make 6 nan in
      Sampling.distribution_into rule inst ~commodity:0 ~flow ~latencies ~dst;
      Array.iteri
        (fun j x ->
          check_close ~eps:0. (Sampling.name rule ^ " into, bitwise") x dst.(j))
        expected;
      check_true "cells past |P_i| untouched" (Float.is_nan dst.(4));
      check_raises_invalid "buffer too small" (fun () ->
          Sampling.distribution_into rule inst ~commodity:0 ~flow ~latencies
            ~dst:(Array.make 2 0.)))
    [
      Sampling.Uniform;
      Sampling.Proportional;
      Sampling.Logit 2.;
      Sampling.Mixed 0.5;
    ]

let suite =
  [
    case "uniform" test_uniform;
    case "proportional" test_proportional;
    case "proportional zero-flow path" test_proportional_zero_flow_path;
    case "logit prefers fast" test_logit_prefers_fast_paths;
    case "logit limits" test_logit_limits;
    case "logit stability" test_logit_numerical_stability;
    case "mixed rule" test_mixed_rule;
    case "mixed escapes boundary" test_mixed_escapes_boundary;
    case "mixed validation" test_mixed_validation;
    case "metadata" test_metadata;
    case "distribution_into" test_distribution_into_matches;
    prop_distributions_are_distributions;
  ]
