open Helpers
module Vec = Staleroute_util.Vec

let v123 = Vec.of_array [| 1.; 2.; 3. |]
let v456 = Vec.of_array [| 4.; 5.; 6. |]
let eq_array v xs = Vec.to_array v = xs

let test_create () =
  let v = Vec.create 3 1.5 in
  check_int "dim" 3 (Vec.dim v);
  check_close "fill" 1.5 (Vec.get v 1)

let test_of_to_array () =
  let xs = [| 1.; 2.; 3. |] in
  let v = Vec.of_array xs in
  check_true "of_array/to_array roundtrip" (Vec.to_array v = xs);
  xs.(0) <- 99.;
  check_close "of_array copies" 1. (Vec.get v 0);
  let v' = Vec.init 3 (fun i -> float_of_int i) in
  check_true "init" (eq_array v' [| 0.; 1.; 2. |])

let test_add_sub () =
  check_true "add" (eq_array (Vec.add v123 v456) [| 5.; 7.; 9. |]);
  check_true "sub" (eq_array (Vec.sub v456 v123) [| 3.; 3.; 3. |])

let test_dimension_mismatch () =
  let one = Vec.of_array [| 1. |] in
  check_raises_invalid "add mismatch" (fun () -> Vec.add v123 one);
  check_raises_invalid "dot mismatch" (fun () -> Vec.dot v123 one);
  check_raises_invalid "axpy mismatch" (fun () ->
      Vec.axpy ~alpha:1. ~x:v123 ~y:one)

let test_scale () =
  check_true "scale" (eq_array (Vec.scale 2. v123) [| 2.; 4.; 6. |])

let test_axpy () =
  let y = Vec.copy v456 in
  Vec.axpy ~alpha:2. ~x:v123 ~y;
  check_true "axpy in place" (eq_array y [| 6.; 9.; 12. |])

let test_dot () = check_close "dot" 32. (Vec.dot v123 v456)

let test_in_place_ops () =
  let y = Vec.copy v456 in
  Vec.add_ ~x:v123 ~y;
  check_true "add_" (eq_array y [| 5.; 7.; 9. |]);
  Vec.scale_ 2. y;
  check_true "scale_" (eq_array y [| 10.; 14.; 18. |]);
  Vec.fill y 0.5;
  check_true "fill" (eq_array y [| 0.5; 0.5; 0.5 |]);
  Vec.blit ~src:v123 ~dst:y;
  check_true "blit" (Vec.to_array y = Vec.to_array v123 && not (y == v123));
  let one = Vec.of_array [| 1. |] in
  check_raises_invalid "add_ mismatch" (fun () -> Vec.add_ ~x:v123 ~y:one);
  check_raises_invalid "blit mismatch" (fun () -> Vec.blit ~src:v123 ~dst:one)

let test_pool_reuses_buffers () =
  let pool = Vec.Pool.create ~dim:4 in
  check_int "pool dim" 4 (Vec.Pool.dim pool);
  let a = Vec.Pool.acquire pool in
  check_int "buffer dim" 4 (Vec.dim a);
  Vec.Pool.release pool a;
  let b = Vec.Pool.acquire pool in
  check_true "released buffer is reused" (a == b);
  Vec.Pool.release pool b;
  let c = Vec.Pool.with_vec pool (fun v -> v) in
  check_true "with_vec releases" (c == Vec.Pool.acquire pool);
  check_raises_invalid "release mismatch" (fun () ->
      Vec.Pool.release pool (Vec.of_array [| 1. |]))

let test_lerp () =
  check_true "lerp 0 is first"
    (eq_array (Vec.lerp 0. v123 v456) (Vec.to_array v123));
  check_true "lerp 1 is second"
    (eq_array (Vec.lerp 1. v123 v456) (Vec.to_array v456));
  check_close "lerp midpoint" 2.5 (Vec.get (Vec.lerp 0.5 v123 v456) 0)

let test_norms () =
  let v = Vec.of_array [| 3.; -4. |] in
  check_close "norm1" 7. (Vec.norm1 v);
  check_close "norm2" 5. (Vec.norm2 v);
  check_close "norm_inf" 4. (Vec.norm_inf v)

let test_distances () =
  check_close "dist1" 9. (Vec.dist1 v123 v456);
  check_close "dist_inf" 3. (Vec.dist_inf v123 v456)

let test_sum () = check_close "sum" 6. (Vec.sum v123)

let test_approx_equal () =
  check_true "equal to itself" (Vec.approx_equal v123 v123);
  check_true "tiny perturbation"
    (Vec.approx_equal v123 (Vec.of_array [| 1. +. 1e-13; 2.; 3. |]));
  check_false "different" (Vec.approx_equal v123 v456);
  check_false "different dims" (Vec.approx_equal v123 (Vec.of_array [| 1. |]))

let test_copy_fresh () =
  let c = Vec.copy v123 in
  Vec.set c 0 99.;
  check_close "copy does not alias" 1. (Vec.get v123 0)

let test_nan_propagates () =
  (* The backing store is an IEEE float64 Bigarray: NaN round-trips
     through set/get/copy untouched so guards downstream can see it. *)
  let v = Vec.of_array [| 1.; Float.nan |] in
  check_true "nan stored" (Float.is_nan (Vec.get v 1));
  check_true "nan survives copy" (Float.is_nan (Vec.get (Vec.copy v) 1));
  check_true "for_all sees nan" (not (Vec.for_all Float.is_finite v))

let gen_vec =
  QCheck2.Gen.(array_size (int_range 1 20) (float_range (-100.) 100.))

let prop_triangle =
  qcheck "qcheck: triangle inequality for norm1"
    QCheck2.Gen.(pair gen_vec gen_vec)
    (fun (a, b) ->
      let a = Vec.of_array a and b = Vec.of_array b in
      Vec.dim a <> Vec.dim b
      || Vec.norm1 (Vec.add a b) <= Vec.norm1 a +. Vec.norm1 b +. 1e-6)

let prop_cauchy_schwarz =
  qcheck "qcheck: Cauchy-Schwarz"
    QCheck2.Gen.(pair gen_vec gen_vec)
    (fun (a, b) ->
      let a = Vec.of_array a and b = Vec.of_array b in
      Vec.dim a <> Vec.dim b
      || Float.abs (Vec.dot a b) <= (Vec.norm2 a *. Vec.norm2 b) +. 1e-6)

let prop_lerp_between =
  qcheck "qcheck: lerp endpoint recovery"
    QCheck2.Gen.(pair gen_vec (float_range 0. 1.))
    (fun (a, s) ->
      let a = Vec.of_array a in
      let b = Vec.scale 2. a in
      let l = Vec.lerp s a b in
      Vec.dim l = Vec.dim a)

let test_extend () =
  let v = Vec.of_array [| 1.5; -0.25; 3e-7 |] in
  let w = Vec.extend v ~dim:5 in
  check_int "extended dim" 5 (Vec.dim w);
  for i = 0 to 2 do
    check_true "prefix bit-exact"
      (Int64.bits_of_float (Vec.get w i) = Int64.bits_of_float (Vec.get v i))
  done;
  check_close "new entries zero" 0. (Vec.get w 3);
  check_close "new entries zero" 0. (Vec.get w 4);
  (* Equal dimension is a fresh copy, not an alias. *)
  let same = Vec.extend v ~dim:3 in
  Vec.set same 0 99.;
  check_close "extend copies" 1.5 (Vec.get v 0);
  check_raises_invalid "shrinking rejected" (fun () ->
      ignore (Vec.extend v ~dim:2))

(* The integrators' scratch arithmetic: every in-place op allocates
   nothing per call. *)
let test_in_place_ops_allocation_free () =
  match Sys.backend_type with
  | Sys.Native ->
      let x = Vec.create 40 1.5 and y = Vec.create 40 0.5 in
      List.iter
        (fun (name, f) ->
          check_close (name ^ ": 0 minor words per call") 0.
            (words_per_call f))
        [
          ("fill", fun () -> Vec.fill y 0.5);
          ("blit", fun () -> Vec.blit ~src:x ~dst:y);
          ("add_", fun () -> Vec.add_ ~x ~y);
          ("scale_", fun () -> Vec.scale_ 1.0000001 y);
          ("axpy", fun () -> Vec.axpy ~alpha:1e-9 ~x ~y);
        ]
  | _ -> ()

let suite =
  [
    case "create" test_create;
    case "extend" test_extend;
    case "of_array/to_array/init" test_of_to_array;
    case "add/sub" test_add_sub;
    case "dimension mismatch" test_dimension_mismatch;
    case "scale" test_scale;
    case "axpy" test_axpy;
    case "dot" test_dot;
    case "in-place ops" test_in_place_ops;
    case "in-place ops allocation-free" test_in_place_ops_allocation_free;
    case "scratch pool" test_pool_reuses_buffers;
    case "lerp" test_lerp;
    case "norms" test_norms;
    case "distances" test_distances;
    case "sum" test_sum;
    case "approx_equal" test_approx_equal;
    case "copy freshness" test_copy_fresh;
    case "nan propagation" test_nan_propagates;
    prop_triangle;
    prop_cauchy_schwarz;
    prop_lerp_between;
  ]
