open Helpers
open Staleroute_dynamics

let test_better_response () =
  let mu = Migration.prob Migration.Better_response in
  check_close "improves -> 1" 1. (mu ~ell_p:2. ~ell_q:1.);
  check_close "equal -> 0" 0. (mu ~ell_p:1. ~ell_q:1.);
  check_close "worse -> 0" 0. (mu ~ell_p:1. ~ell_q:2.);
  check_true "not smooth" (Migration.alpha Migration.Better_response = None)

let test_linear () =
  let rule = Migration.Linear { ell_max = 2. } in
  let mu = Migration.prob rule in
  check_close "half gain" 0.25 (mu ~ell_p:1. ~ell_q:0.5);
  check_close "no gain" 0. (mu ~ell_p:0.5 ~ell_q:1.);
  check_close "full spread" 1. (mu ~ell_p:2. ~ell_q:0.);
  check_true "alpha = 1/lmax" (Migration.alpha rule = Some 0.5)

let test_linear_caps_at_one () =
  (* If latencies exceed the declared lmax the probability must clamp. *)
  let mu = Migration.prob (Migration.Linear { ell_max = 1. }) in
  check_close "clamped" 1. (mu ~ell_p:5. ~ell_q:0.)

let test_scaled_linear () =
  let rule = Migration.Scaled_linear { alpha = 0.1 } in
  let mu = Migration.prob rule in
  check_close "alpha times gain" 0.05 (mu ~ell_p:1. ~ell_q:0.5);
  check_close "cap at 1" 1. (mu ~ell_p:100. ~ell_q:0.);
  check_true "declared alpha" (Migration.alpha rule = Some 0.1)

let test_relative () =
  let rule = Migration.Relative { scale = 0.5 } in
  let mu = Migration.prob rule in
  (* scale * (lP - lQ)/lP. *)
  check_close "relative slack" 0.25 (mu ~ell_p:1. ~ell_q:0.5);
  check_close "no gain" 0. (mu ~ell_p:0.5 ~ell_q:1.);
  check_close "zero origin latency guarded" 0. (mu ~ell_p:0. ~ell_q:0.);
  check_close "full slack capped by scale" 0.5 (mu ~ell_p:5. ~ell_q:0.);
  check_true "relative is not alpha-smooth" (Migration.alpha rule = None)

let test_relative_scale_invariance () =
  (* The whole point: the rule only sees latency ratios. *)
  let mu = Migration.prob (Migration.Relative { scale = 1. }) in
  check_close "scale-free" (mu ~ell_p:1. ~ell_q:0.25)
    (mu ~ell_p:100. ~ell_q:25.)

let test_smoothness_check () =
  check_true "linear is (1/lmax)-smooth"
    (Migration.check_smoothness
       (Migration.Linear { ell_max = 2. })
       ~samples:50 ~ell_max:2.);
  check_true "scaled linear is alpha-smooth"
    (Migration.check_smoothness
       (Migration.Scaled_linear { alpha = 0.3 })
       ~samples:50 ~ell_max:5.);
  check_false "better response is not smooth"
    (Migration.check_smoothness Migration.Better_response ~samples:50
       ~ell_max:1.);
  (* A negative alpha declares a bound µ <= α(ℓ_P − ℓ_Q) below 0, which
     the clamped µ = 0 breaks: the check must catch it. *)
  check_false "overclaimed smoothness detected"
    (Migration.check_smoothness
       (Migration.Scaled_linear { alpha = -1. })
       ~samples:50 ~ell_max:1.)

let test_probabilities_bounded () =
  let rules =
    [
      Migration.Better_response;
      Migration.Linear { ell_max = 0.5 };
      Migration.Scaled_linear { alpha = 10. };
      Migration.Relative { scale = 1. };
    ]
  in
  List.iter
    (fun rule ->
      let mu = Migration.prob rule in
      List.iter
        (fun (p, q) ->
          let v = mu ~ell_p:p ~ell_q:q in
          check_true "in [0,1]" (v >= 0. && v <= 1.);
          (* Selfish: never migrate to a path that is not better. *)
          if q >= p then check_close ~eps:0. "selfish" 0. v)
        [ (0., 0.); (10., 0.); (0., 10.); (1., 0.999); (5., 5.) ])
    rules

let prop_linear_smoothness_definition =
  qcheck ~count:200 "qcheck: linear rule satisfies Definition 2"
    QCheck2.Gen.(pair (float_range 0. 10.) (float_range 0. 10.))
    (fun (a, b) ->
      let ell_p = Float.max a b and ell_q = Float.min a b in
      let mu =
        Migration.prob (Migration.Linear { ell_max = 10. }) ~ell_p ~ell_q
      in
      mu <= (0.1 *. (ell_p -. ell_q)) +. 1e-12)

let suite =
  [
    case "better response" test_better_response;
    case "linear" test_linear;
    case "linear caps" test_linear_caps_at_one;
    case "scaled linear" test_scaled_linear;
    case "relative" test_relative;
    case "relative scale invariance" test_relative_scale_invariance;
    case "smoothness check" test_smoothness_check;
    case "probabilities bounded" test_probabilities_bounded;
    prop_linear_smoothness_definition;
  ]
