open Helpers
module L = Staleroute_latency.Latency
module N = Staleroute_util.Numerics

let all_samples = N.linspace 0. 1. 41

(* Adaptive Simpson quadrature with Richardson correction to absolute
   tolerance [tol]: the independent reference for closed-form integrals. *)
let integrate_adaptive ?(tol = 1e-10) f a b =
  let simpson a fa b fb fm = (b -. a) /. 6. *. (fa +. (4. *. fm) +. fb) in
  let rec go a fa b fb m fm whole tol depth =
    let lm = (a +. m) /. 2. and rm = (m +. b) /. 2. in
    let flm = f lm and frm = f rm in
    let left = simpson a fa m fm flm in
    let right = simpson m fm b fb frm in
    let delta = left +. right -. whole in
    if depth <= 0 || Float.abs delta <= 15. *. tol then
      left +. right +. (delta /. 15.)
    else
      go a fa m fm lm flm left (tol /. 2.) (depth - 1)
      +. go m fm b fb rm frm right (tol /. 2.) (depth - 1)
  in
  if a = b then 0.
  else
    let fa = f a and fb = f b in
    let m = (a +. b) /. 2. in
    let fm = f m in
    go a fa b fb m fm (simpson a fa b fb fm) tol 48

(* Cross-check a closed-form integral against adaptive quadrature. *)
let check_integral_consistent ?(eps = 1e-7) name f =
  Array.iter
    (fun x ->
      check_close ~eps
        (Printf.sprintf "%s: integral at %.3f" name x)
        (integrate_adaptive (L.eval f) 0. x)
        (L.integral f x))
    all_samples

let check_nondecreasing name f =
  Array.iteri
    (fun i x ->
      if i > 0 then
        check_true
          (Printf.sprintf "%s nondecreasing at %.3f" name x)
          (L.eval f x >= L.eval f all_samples.(i - 1) -. 1e-12))
    all_samples

let check_slope_bound_valid name f =
  let bound = L.slope_bound f in
  Array.iteri
    (fun i x ->
      if i > 0 then begin
        let x0 = all_samples.(i - 1) in
        let secant = (L.eval f x -. L.eval f x0) /. (x -. x0) in
        check_true
          (Printf.sprintf "%s slope bound at %.3f" name x)
          (secant <= bound +. 1e-9)
      end)
    all_samples

let zoo () =
  [
    ("const", L.const 2.);
    ("affine", L.affine ~slope:3. ~intercept:0.5);
    ("linear", L.linear 2.);
    ("monomial", L.monomial ~coeff:2. ~degree:4);
    ("poly", L.poly [| 1.; 0.; 3.; 0.5 |]);
    ("relu", L.relu ~slope:4. ~knee:0.5);
    ("pwl", L.pwl [ (0., 0.); (0.25, 0.5); (0.6, 0.5); (1., 2.) ]);
    ("mm1", L.mm1 ~capacity:2.);
    ("scale", L.scale 2.5 (L.linear 1.));
    ("shift", L.shift 0.7 (L.monomial ~coeff:1. ~degree:2));
    ("sum", L.add (L.linear 1.) (L.mm1 ~capacity:3.));
  ]

let test_eval_known_values () =
  check_close "const" 2. (L.eval (L.const 2.) 0.7);
  check_close "affine" 2.3 (L.eval (L.affine ~slope:3. ~intercept:0.5) 0.6);
  check_close "monomial" 0.125 (L.eval (L.monomial ~coeff:1. ~degree:3) 0.5);
  check_close "poly horner" 1.75 (L.eval (L.poly [| 1.; 1.; 1. |]) 0.5);
  check_close "relu below knee" 0. (L.eval (L.relu ~slope:4. ~knee:0.5) 0.3);
  check_close "relu above knee" 1.2 (L.eval (L.relu ~slope:4. ~knee:0.5) 0.8);
  check_close "mm1" 2. (L.eval (L.mm1 ~capacity:1.5) 1.)

let test_eval_clamps () =
  let f = L.linear 2. in
  check_close "clamp below" 0. (L.eval f (-0.5));
  check_close "clamp above" 2. (L.eval f 1.5)

let test_pwl_interpolation () =
  let f = L.pwl [ (0., 0.); (0.5, 1.); (1., 1.) ] in
  check_close "at breakpoint" 1. (L.eval f 0.5);
  check_close "interpolated" 0.5 (L.eval f 0.25);
  check_close "flat region" 1. (L.eval f 0.75);
  check_close "right end" 1. (L.eval f 1.)

let test_integrals_closed_form () =
  check_close "const integral" 1.4 (L.integral (L.const 2.) 0.7);
  check_close "affine integral"
    ((3. /. 2. *. 0.36) +. (0.5 *. 0.6))
    (L.integral (L.affine ~slope:3. ~intercept:0.5) 0.6);
  check_close "relu integral: zero below knee" 0.
    (L.integral (L.relu ~slope:4. ~knee:0.5) 0.5);
  check_close "relu integral above knee" (4. *. 0.09 /. 2.)
    (L.integral (L.relu ~slope:4. ~knee:0.5) 0.8);
  check_close "mm1 integral" (log 2. -. log 1.)
    (L.integral (L.mm1 ~capacity:2.) 1.)

let test_integral_matches_quadrature () =
  List.iter (fun (name, f) -> check_integral_consistent name f) (zoo ())

let test_monotonicity () =
  List.iter (fun (name, f) -> check_nondecreasing name f) (zoo ())

let test_slope_bounds () =
  List.iter (fun (name, f) -> check_slope_bound_valid name f) (zoo ())

let test_deriv_matches_finite_difference () =
  List.iter
    (fun (name, f) ->
      (* Sample away from kinks of the piecewise functions. *)
      List.iter
        (fun x ->
          let h = 1e-6 in
          let fd = (L.eval f (x +. h) -. L.eval f (x -. h)) /. (2. *. h) in
          check_close ~eps:1e-3
            (Printf.sprintf "%s deriv at %.3f" name x)
            fd (L.deriv f x))
        [ 0.1; 0.33; 0.77; 0.9 ])
    (List.filter (fun (n, _) -> n <> "pwl" && n <> "relu") (zoo ()))

let test_deriv_at_kinks () =
  let f = L.relu ~slope:4. ~knee:0.5 in
  check_close "right derivative at knee" 4. (L.deriv f 0.5);
  check_close "below knee" 0. (L.deriv f 0.3)

let test_max_value () =
  check_close "max of affine" 3.5 (L.max_value (L.affine ~slope:3. ~intercept:0.5));
  check_close "max of relu" 2. (L.max_value (L.relu ~slope:4. ~knee:0.5))

let test_validation () =
  check_raises_invalid "negative const" (fun () -> ignore (L.const (-1.)));
  check_raises_invalid "negative slope" (fun () ->
      ignore (L.affine ~slope:(-1.) ~intercept:0.));
  check_raises_invalid "degree 0 monomial" (fun () ->
      ignore (L.monomial ~coeff:1. ~degree:0));
  check_raises_invalid "empty poly" (fun () -> ignore (L.poly [||]));
  check_raises_invalid "negative poly coeff" (fun () ->
      ignore (L.poly [| 1.; -2. |]));
  check_raises_invalid "relu knee out of range" (fun () ->
      ignore (L.relu ~slope:1. ~knee:1.5));
  check_raises_invalid "mm1 capacity <= 1" (fun () ->
      ignore (L.mm1 ~capacity:1.));
  check_raises_invalid "pwl too short" (fun () -> ignore (L.pwl [ (0., 0.) ]));
  check_raises_invalid "pwl not from 0" (fun () ->
      ignore (L.pwl [ (0.1, 0.); (1., 1.) ]));
  check_raises_invalid "pwl not covering 1" (fun () ->
      ignore (L.pwl [ (0., 0.); (0.5, 1.) ]));
  check_raises_invalid "pwl decreasing" (fun () ->
      ignore (L.pwl [ (0., 1.); (1., 0.) ]));
  check_raises_invalid "pwl x not increasing" (fun () ->
      ignore (L.pwl [ (0., 0.); (0.5, 1.); (0.5, 2.); (1., 3.) ]));
  check_raises_invalid "negative scale" (fun () ->
      ignore (L.scale (-2.) (L.const 1.)))

let test_slope_bound_examples () =
  check_close "const slope" 0. (L.slope_bound (L.const 5.));
  check_close "affine slope" 3. (L.slope_bound (L.affine ~slope:3. ~intercept:1.));
  check_close "relu slope" 4. (L.slope_bound (L.relu ~slope:4. ~knee:0.5));
  check_close "mm1 slope" 4. (L.slope_bound (L.mm1 ~capacity:1.5));
  check_close "sum slope" 7.
    (L.slope_bound (L.add (L.linear 3.) (L.relu ~slope:4. ~knee:0.))) ;
  check_close "poly slope at 1" 8.
    (L.slope_bound (L.poly [| 1.; 2.; 3. |]))

let test_elasticity_bounds () =
  check_close "const" 0. (L.elasticity_bound (L.const 3.));
  check_close "pure linear" 1. (L.elasticity_bound (L.linear 2.));
  check_close "affine with intercept" (2. /. 3.)
    (L.elasticity_bound (L.affine ~slope:2. ~intercept:1.));
  check_close "monomial degree d" 7.
    (L.elasticity_bound (L.monomial ~coeff:3. ~degree:7));
  check_close "poly top degree" 3.
    (L.elasticity_bound (L.poly [| 1.; 0.; 0.; 2. |]));
  check_close "poly ignores zero top coeffs" 1.
    (L.elasticity_bound (L.poly [| 1.; 2.; 0.; 0. |]));
  check_true "relu with interior knee is inelastic"
    (L.elasticity_bound (L.relu ~slope:2. ~knee:0.5) = infinity);
  check_close "relu at knee 0 is linear" 1.
    (L.elasticity_bound (L.relu ~slope:2. ~knee:0.));
  check_close "mm1" 2. (L.elasticity_bound (L.mm1 ~capacity:1.5));
  check_close "scale invariant" 7.
    (L.elasticity_bound (L.scale 5. (L.monomial ~coeff:1. ~degree:7)));
  check_true "shift caps the relu blow-up"
    (L.elasticity_bound (L.shift 0.5 (L.relu ~slope:2. ~knee:0.5))
    < infinity);
  check_close "sum takes the max" 4.
    (L.elasticity_bound
       (L.add (L.monomial ~coeff:1. ~degree:4) (L.linear 1.)))

let test_elasticity_bound_is_valid () =
  (* Empirically: x f'(x) <= bound * f(x) on a grid, for elastic zoo
     members. *)
  List.iter
    (fun (name, f) ->
      let bound = L.elasticity_bound f in
      if Float.is_finite bound then
        Array.iter
          (fun x ->
            if x > 0.01 then
              check_true
                (Printf.sprintf "%s elasticity at %.3f" name x)
                (x *. L.deriv f x <= (bound *. L.eval f x) +. 1e-9))
          all_samples)
    (zoo ())

let test_pp_roundtrip_readable () =
  List.iter
    (fun (name, f) ->
      check_true
        (Printf.sprintf "%s prints something" name)
        (String.length (L.to_string f) > 0))
    (zoo ())

let prop_integral_monotone =
  qcheck "qcheck: integral is nondecreasing in x"
    QCheck2.Gen.(pair (float_range 0. 1.) (float_range 0. 1.))
    (fun (a, b) ->
      let f = L.poly [| 0.5; 1.; 2. |] in
      let lo = Float.min a b and hi = Float.max a b in
      L.integral f lo <= L.integral f hi +. 1e-12)

let prop_scale_linearity =
  qcheck "qcheck: scale is multiplicative on eval and integral"
    QCheck2.Gen.(pair (float_range 0. 5.) (float_range 0. 1.))
    (fun (s, x) ->
      let f = L.affine ~slope:2. ~intercept:1. in
      let g = L.scale s f in
      Float.abs (L.eval g x -. (s *. L.eval f x)) < 1e-9
      && Float.abs (L.integral g x -. (s *. L.integral f x)) < 1e-9)

(* Potential.phi and Virtual_gain skip edges no path uses; that is
   bitwise-inert only because at load 0 every family is finite and has
   a ±0 integral.  One latency of each constructor per draw, the
   combinators over random leaves. *)
let families (c0, c1, c2, knee, degree, cap) =
  let leaves =
    [
      ("const", L.const c0);
      ("affine", L.affine ~slope:c0 ~intercept:c1);
      ("monomial", L.monomial ~coeff:c0 ~degree);
      ("poly", L.poly [| c0; c1; c2 |]);
      ("relu", L.relu ~slope:c1 ~knee);
      ( "pwl",
        L.pwl
          [ (0., c0); (0.05 +. (knee *. 0.9), c0 +. c1); (1., c0 +. c1 +. c2) ]
      );
      ("mm1", L.mm1 ~capacity:cap);
    ]
  in
  let leaf i = snd (List.nth leaves (i mod List.length leaves)) in
  leaves
  @ [
      ("scale", L.scale c2 (leaf degree));
      ("shift", L.shift c1 (leaf (degree + 1)));
      ("sum", L.add (leaf degree) (L.scale c0 (leaf (degree + 3))));
    ]

let prop_inert_at_zero_load =
  qcheck ~count:300 "qcheck: every family is finite with a ±0 integral at load 0"
    QCheck2.Gen.(
      let c = float_range 0. 5. in
      map
        (fun ((c0, c1, c2), (knee, degree, cap)) ->
          (c0, c1, c2, knee, degree, cap))
        (pair (triple c c c)
           (triple (float_range 0. 1.) (int_range 1 6) (float_range 1.01 10.))))
    (fun params ->
      List.for_all
        (fun (_, f) ->
          L.integral f 0. = 0. && Float.is_finite (L.eval f 0.))
        (families params)
      && List.length (families params) = 10)

let test_non_finite_parameters_rejected () =
  check_raises_invalid "const inf" (fun () -> L.const infinity);
  check_raises_invalid "affine inf" (fun () ->
      L.affine ~slope:infinity ~intercept:0.);
  check_raises_invalid "poly inf" (fun () -> L.poly [| 1.; infinity |]);
  check_raises_invalid "pwl inf y" (fun () -> L.pwl [ (0., 0.); (1., infinity) ]);
  check_raises_invalid "pwl inf x" (fun () -> L.pwl [ (0., 0.); (infinity, 1.) ]);
  check_raises_invalid "mm1 inf" (fun () -> L.mm1 ~capacity:infinity);
  check_raises_invalid "scale inf" (fun () -> L.scale infinity (L.const 1.));
  check_raises_invalid "shift inf" (fun () -> L.shift infinity (L.const 1.))

let special_loads =
  [| -0.; 0.; -1e-17; 1e-300; 1.; 1. +. epsilon_float; 1.5; -3.; 1e300;
     -1e300; infinity; neg_infinity; nan |]

(* The batch entries' clamp must be [Numerics.clamp ~lo:0. ~hi:1.] bit
   for bit, -0. and NaN included: [integral (const 1.) x] is
   [1. *. clamp x]. *)
let test_clamp_is_numerics_clamp () =
  Array.iter
    (fun x ->
      check_true
        (Printf.sprintf "clamp %h" x)
        (same_bits (L.integral (L.const 1.) x) (N.clamp ~lo:0. ~hi:1. x)))
    special_loads

let prop_batch_entries_bitwise =
  qcheck ~count:300 "qcheck: batch entries = eval/integral, bit for bit"
    QCheck2.Gen.(
      let c = float_range 0. 5. in
      (* Not NaN: which NaN payload a sum keeps depends on the operand
         order the compiler picks, which is no property of the code. *)
      let load =
        oneof
          [
            oneofa (Array.sub special_loads 0 (Array.length special_loads - 1));
            float_range (-0.5) 1.5;
            float_range 0. 1.;
          ]
      in
      triple
        (pair (triple c c c)
           (triple (float_range 0. 1.) (int_range 1 6) (float_range 1.01 10.)))
        (pair (array_size (return 24) load) (array_size (return 24) load))
        (int_range 0 1_000_000))
    (fun (((c0, c1, c2), (knee, degree, cap)), (loads, hats), seed) ->
      let fams =
        Array.of_list (List.map snd (families (c0, c1, c2, knee, degree, cap)))
      in
      (* 24 edges, every family at least twice, affine edges common. *)
      let ls = Array.init 24 (fun e -> fams.(e mod Array.length fams)) in
      let r = Staleroute_util.Rng.create ~seed () in
      let edges = Array.init 30 (fun _ -> Staleroute_util.Rng.int r 24) in
      let phi = ref 0. and v = ref 0. in
      Array.iter
        (fun e ->
          phi := !phi +. L.integral ls.(e) loads.(e);
          v := !v +. (L.eval ls.(e) hats.(e) *. (loads.(e) -. hats.(e))))
        edges;
      let sums = Array.make 2 0. in
      L.phase_sums ls ~edges ~hat:hats ~load:loads sums;
      let distinct = Array.init 24 Fun.id in
      Staleroute_util.Rng.shuffle r distinct;
      let count = Staleroute_util.Rng.int r 25 in
      let dst = Array.copy hats in
      L.eval_into ls ~edges:distinct ~count loads dst;
      let in_place = Array.copy loads in
      L.eval_into ls ~edges:distinct ~count in_place in_place;
      let evals_agree = ref true in
      Array.iteri
        (fun i e ->
          let expect, keep =
            if i < count then (L.eval ls.(e) loads.(e), L.eval ls.(e) loads.(e))
            else (hats.(e), loads.(e))
          in
          if not (same_bits dst.(e) expect && same_bits in_place.(e) keep) then
            evals_agree := false)
        distinct;
      same_bits (L.integral_sum ls ~edges loads) !phi
      && same_bits sums.(0) !phi && same_bits sums.(1) !v && !evals_agree)

let suite =
  [
    case "known evals" test_eval_known_values;
    case "eval clamps" test_eval_clamps;
    case "pwl interpolation" test_pwl_interpolation;
    case "closed-form integrals" test_integrals_closed_form;
    case "integral = quadrature (zoo)" test_integral_matches_quadrature;
    case "monotone (zoo)" test_monotonicity;
    case "slope bounds valid (zoo)" test_slope_bounds;
    case "deriv = finite difference" test_deriv_matches_finite_difference;
    case "deriv at kinks" test_deriv_at_kinks;
    case "max_value" test_max_value;
    case "constructor validation" test_validation;
    case "slope bound examples" test_slope_bound_examples;
    case "elasticity bounds" test_elasticity_bounds;
    case "elasticity bound validity" test_elasticity_bound_is_valid;
    case "printers" test_pp_roundtrip_readable;
    prop_integral_monotone;
    prop_scale_linearity;
    prop_inert_at_zero_load;
    case "non-finite parameters rejected" test_non_finite_parameters_rejected;
    case "clamp is Numerics.clamp" test_clamp_is_numerics_clamp;
    prop_batch_entries_bitwise;
  ]
