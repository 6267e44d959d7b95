open Helpers
module N = Staleroute_util.Numerics

let test_kahan_vs_naive () =
  (* Alternating large/small values where naive summation loses bits. *)
  let xs = Array.init 10_000 (fun i -> if i mod 2 = 0 then 1e16 else 1.) in
  let xs = Array.append xs [| -5_000. *. 1e16 |] in
  check_close ~eps:1. "kahan keeps the small terms" 5000. (N.kahan_sum xs)

let test_kahan_empty () = check_close "empty sum" 0. (N.kahan_sum [||])

let test_sum_by () =
  check_close "sum of squares" 14. (N.sum_by (fun x -> x *. x) [| 1.; 2.; 3. |])

let test_approx_equal () =
  check_true "exact" (N.approx_equal 1. 1.);
  check_true "within rtol" (N.approx_equal 1. (1. +. 1e-12));
  check_false "clearly different" (N.approx_equal 1. 1.1);
  check_true "atol near zero" (N.approx_equal 0. 1e-13);
  check_false "beyond atol near zero" (N.approx_equal 0. 1e-3)

let test_clamp () =
  check_close "below" 0. (N.clamp ~lo:0. ~hi:1. (-3.));
  check_close "above" 1. (N.clamp ~lo:0. ~hi:1. 3.);
  check_close "inside" 0.5 (N.clamp ~lo:0. ~hi:1. 0.5);
  check_raises_invalid "lo > hi" (fun () -> N.clamp ~lo:1. ~hi:0. 0.5)

let test_linspace () =
  let xs = N.linspace 0. 1. 5 in
  check_int "length" 5 (Array.length xs);
  check_close "first" 0. xs.(0);
  check_close "last" 1. xs.(4);
  check_close "step" 0.25 (xs.(1) -. xs.(0));
  check_raises_invalid "n < 2" (fun () -> N.linspace 0. 1. 1)

let prop_clamp_idempotent =
  qcheck "qcheck: clamp is idempotent"
    QCheck2.Gen.(float_range (-100.) 100.)
    (fun x ->
      let y = N.clamp ~lo:(-1.) ~hi:1. x in
      N.clamp ~lo:(-1.) ~hi:1. y = y)

let suite =
  [
    case "kahan beats naive" test_kahan_vs_naive;
    case "kahan empty" test_kahan_empty;
    case "sum_by" test_sum_by;
    case "approx_equal" test_approx_equal;
    case "clamp" test_clamp;
    case "linspace" test_linspace;
    prop_clamp_idempotent;
  ]
