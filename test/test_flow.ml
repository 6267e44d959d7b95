open Helpers
open Staleroute_wardrop
module Common = Staleroute_experiments.Common
module Vec = Staleroute_util.Vec

let test_uniform_feasible () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  check_true "uniform feasible" (Flow.is_feasible inst f);
  Vec.iteri (fun _ x -> check_close "equal shares" (1. /. 3.) x) f

let test_concentrated () =
  let inst = Common.braess () in
  let f = Flow.concentrated inst ~on:(fun _ -> 1) in
  check_true "concentrated feasible" (Flow.is_feasible inst f);
  check_close "all mass on chosen path" 1. (Vec.get f 1);
  check_raises_invalid "out-of-range choice" (fun () ->
      ignore (Flow.concentrated inst ~on:(fun _ -> 5)))

let test_random_feasible () =
  let inst = Common.parallel 6 in
  let r = rng () in
  for _ = 1 to 20 do
    let f = Flow.random inst r in
    check_true "random feasible" (Flow.is_feasible inst f);
    check_true "interior" (Vec.for_all (fun x -> x > 0.) f)
  done

let test_is_feasible_detects_violations () =
  let inst = Common.braess () in
  check_false "wrong length" (Flow.is_feasible inst (vec [| 1.; 0. |]));
  check_false "negative entry"
    (Flow.is_feasible inst (vec [| -0.5; 1.0; 0.5 |]));
  check_false "wrong total" (Flow.is_feasible inst (vec [| 0.5; 0.5; 0.5 |]))

let test_project_repairs () =
  let inst = Common.braess () in
  let dirty = vec [| 0.5; -0.1; 0.7 |] in
  let clean = Flow.project inst dirty in
  check_true "projected feasible" (Flow.is_feasible ~tol:1e-12 inst clean);
  check_close "negative clipped" 0. (Vec.get clean 1);
  (* Relative shares of the positive entries preserved: 0.5 : 0.7. *)
  check_close ~eps:1e-12 "share ratio preserved" (0.5 /. 0.7)
    (Vec.get clean 0 /. Vec.get clean 2)

let test_project_identity_on_feasible () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  check_true "projection fixes feasible points"
    (Vec.approx_equal f (Flow.project inst f))

let test_project_vanished_mass () =
  let inst = Common.braess () in
  check_raises_invalid "all-zero commodity" (fun () ->
      ignore (Flow.project inst (vec [| 0.; 0.; 0. |])))

let test_project_in_place_matches () =
  let inst = Common.two_commodity () in
  let dirty = Vec.map (fun x -> x -. 0.05) (Flow.random inst (rng ())) in
  let by_copy = Flow.project inst dirty in
  Flow.project_ inst dirty;
  check_true "project_ = project, bitwise" (by_copy = dirty);
  check_raises_invalid "project_ vanish" (fun () ->
      Flow.project_ inst (Vec.create (Instance.path_count inst) 0.))

let test_edge_flows_braess () =
  let inst = Common.braess () in
  (* Path order: [0;2] upper, [0;4;3] zigzag, [1;3] lower. *)
  let f = vec [| 0.2; 0.3; 0.5 |] in
  let fe = Flow.edge_flows inst f in
  check_close "edge 0 (s-v)" 0.5 fe.(0);
  check_close "edge 1 (s-w)" 0.5 fe.(1);
  check_close "edge 2 (v-t)" 0.2 fe.(2);
  check_close "edge 3 (w-t)" 0.8 fe.(3);
  check_close "edge 4 (bridge)" 0.3 fe.(4)

let test_edge_flow_conservation () =
  let inst = Common.grid33 () in
  let r = rng () in
  let f = Flow.random inst r in
  let fe = Flow.edge_flows inst f in
  (* Flow out of the source equals total demand. *)
  let g = Instance.graph inst in
  let out_src =
    List.fold_left
      (fun acc e -> acc +. fe.(e.Staleroute_graph.Digraph.id))
      0.
      (Staleroute_graph.Digraph.out_edges g 0)
  in
  check_close ~eps:1e-9 "source outflow = demand" 1. out_src

(* [Flow.edge_flows] against the forward-scatter reference in
   [Helpers], bit for bit, on three kinds of input: random instances
   (fixed topologies and layered DAGs with parallel edges), instances
   grown column by column through [Instance.extend] (whose transpose is
   merged, not rebuilt), and flows holding -0., 0. and NaN entries (a
   -0. is skipped like 0.; a NaN is summed). *)
let prop_edge_flows_match_reference =
  let module Rng = Staleroute_util.Rng in
  let module Gen = Staleroute_graph.Gen in
  qcheck ~count:200 "qcheck: edge_flows = forward-scatter reference"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let r = Rng.create ~seed () in
      let dag ~grown =
        let st =
          Gen.layered_skips ~skip_prob:0.3 ~rng:r ~layers:(2 + Rng.int r 3)
            ~width:(2 + Rng.int r 2) ~edge_prob:0.6
        in
        let graph = with_parallel_edges r st.Gen.graph in
        let latencies =
          Array.init (Staleroute_graph.Digraph.edge_count graph) (fun j ->
              Staleroute_latency.Latency.linear (1. +. float_of_int (j mod 3)))
        in
        let commodities =
          [ Commodity.make ~src:st.Gen.src ~dst:st.Gen.dst ~demand:1. ]
        in
        let full = Instance.create ~graph ~latencies ~commodities () in
        if not grown then full
        else begin
          let paths = Array.init (Instance.path_count full) (Instance.path full) in
          Rng.shuffle r paths;
          let inst =
            ref
              (Instance.of_paths ~graph ~latencies ~commodities
                 ~paths:[| [ paths.(0) ] |] ())
          and i = ref 1 in
          while !i < Array.length paths do
            let k = min (1 + Rng.int r 3) (Array.length paths - !i) in
            inst :=
              Instance.extend !inst
                ~paths:(List.init k (fun j -> (0, paths.(!i + j))));
            i := !i + k
          done;
          !inst
        end
      in
      let inst =
        match Rng.int r 3 with
        | 0 ->
            List.nth
              [
                Common.braess ();
                Common.parallel 5;
                Common.grid33 ();
                Common.two_commodity ();
              ]
              (Rng.int r 4)
        | 1 -> dag ~grown:false
        | _ -> dag ~grown:true
      in
      let f =
        if Rng.bool r then Flow.random inst r
        else
          Vec.init (Instance.path_count inst) (fun _ ->
              match Rng.int r 4 with
              | 0 -> -0.
              | 1 -> 0.
              | 2 -> Float.nan
              | _ -> Rng.float r 1.)
      in
      let got = Flow.edge_flows inst f and want = reference_edge_flows inst f in
      Array.length got = Array.length want && Array.for_all2 same_bits got want)

let test_path_latencies_additive () =
  let inst = Common.braess () in
  let f = vec [| 0.2; 0.3; 0.5 |] in
  let pl = Flow.path_latencies inst f in
  (* upper: l(s-v) = 0.5, l(v-t) = 1 -> 1.5
     zigzag: 0.5 + 0 + l(w-t)=0.8 -> 1.3
     lower: 1 + 0.8 -> 1.8 *)
  check_close "upper" 1.5 pl.(0);
  check_close "zigzag" 1.3 pl.(1);
  check_close "lower" 1.8 pl.(2)

let test_commodity_aggregates () =
  let inst = Common.braess () in
  let f = vec [| 0.2; 0.3; 0.5 |] in
  let pl = Flow.path_latencies inst f in
  check_close "min latency" 1.3
    (Flow.commodity_min_latency inst ~path_latencies:pl 0);
  let avg = (0.2 *. 1.5) +. (0.3 *. 1.3) +. (0.5 *. 1.8) in
  check_close "avg latency" avg
    (Flow.commodity_avg_latency inst f ~path_latencies:pl 0);
  check_close "overall = single commodity avg" avg
    (Flow.overall_avg_latency inst f ~path_latencies:pl)

let test_avg_respects_demand_scaling () =
  (* Two commodities: averages are per unit of the commodity's demand. *)
  let graph =
    Staleroute_graph.Digraph.create ~nodes:3 ~edges:[ (0, 1); (1, 2); (0, 2) ]
  in
  let inst =
    Instance.create ~graph
      ~latencies:
        [|
          Staleroute_latency.Latency.linear 1.;
          Staleroute_latency.Latency.linear 1.;
          Staleroute_latency.Latency.const 1.;
        |]
      ~commodities:
        [
          Commodity.make ~src:0 ~dst:2 ~demand:0.5;
          Commodity.make ~src:1 ~dst:2 ~demand:0.5;
        ]
      ()
  in
  let f = Flow.uniform inst in
  let pl = Flow.path_latencies inst f in
  let avg0 = Flow.commodity_avg_latency inst f ~path_latencies:pl 0 in
  let avg1 = Flow.commodity_avg_latency inst f ~path_latencies:pl 1 in
  let overall = Flow.overall_avg_latency inst f ~path_latencies:pl in
  check_close ~eps:1e-9 "overall = demand-weighted avg"
    ((0.5 *. avg0) +. (0.5 *. avg1))
    overall

let prop_random_flows_feasible =
  qcheck ~count:50 "qcheck: random flows are feasible"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let inst = Common.parallel 5 in
      let r = Staleroute_util.Rng.create ~seed () in
      Flow.is_feasible inst (Flow.random inst r))

let prop_project_idempotent =
  qcheck ~count:50 "qcheck: project is idempotent"
    QCheck2.Gen.(
      array_size (int_range 3 3) (float_range (-0.2) 1.))
    (fun raw ->
      let inst = Common.braess () in
      match Flow.project inst (vec raw) with
      | exception Invalid_argument _ -> true
      | once -> Vec.approx_equal ~atol:1e-12 once (Flow.project inst once))

let prop_project_finite_feasible =
  qcheck ~count:100 "qcheck: projection of finite input is feasible"
    QCheck2.Gen.(
      array_size (int_range 3 3) (float_range (-5.) 5.))
    (fun raw ->
      let inst = Common.braess () in
      match Flow.project inst (vec raw) with
      (* All-nonpositive input has no mass to rescale — that raise is
         part of the contract, not an infeasibility. *)
      | exception Invalid_argument _ -> Array.for_all (fun x -> x <= 0.) raw
      | f -> Flow.is_feasible ~tol:1e-9 inst f)

let test_project_rejects_non_finite () =
  let inst = Common.braess () in
  List.iter
    (fun bad ->
      check_raises_invalid "non-finite entry rejected" (fun () ->
          ignore (Flow.project inst bad)))
    [
      vec [| Float.nan; 0.5; 0.5 |];
      vec [| 0.5; Float.infinity; 0.5 |];
      vec [| 0.5; 0.5; Float.neg_infinity |];
    ]

let prop_project_rejects_any_non_finite =
  qcheck ~count:100 "qcheck: any non-finite entry raises"
    QCheck2.Gen.(pair (int_range 0 2) (int_range 0 2))
    (fun (pos, which) ->
      let inst = Common.braess () in
      let raw = [| 0.4; 0.3; 0.3 |] in
      raw.(pos) <-
        (match which with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | _ -> Float.neg_infinity);
      match Flow.project inst (vec raw) with
      | exception Invalid_argument _ -> true
      | _ -> false)

(* The raw in-place projection is branch-free on purpose: a NaN
   injected anywhere must survive to the output (where a round-boundary
   [Guard] can see it), never be silently clipped away or raise from
   inside the hot loop.  This is the Vec-semantics contract the guard
   layer rides on — the Bigarray backing store must not change it. *)
let prop_project_in_place_propagates_nan =
  qcheck ~count:100 "qcheck: project_ propagates NaN to the boundary"
    QCheck2.Gen.(pair (int_range 0 4) (int_range 0 10_000))
    (fun (pos, seed) ->
      let inst = Common.parallel 5 in
      let r = Staleroute_util.Rng.create ~seed () in
      let f = Flow.random inst r in
      Vec.set f pos Float.nan;
      Flow.project_ inst f;
      not (Vec.for_all Float.is_finite f))

(* --- Evacuation off dead paths (topology outages, DESIGN.md §14) --- *)

let test_evacuate_no_dead_is_inert () =
  let inst = Common.parallel 4 in
  let r = rng () in
  let f = Flow.random inst r in
  let before = Vec.to_array f in
  let partitioned = Flow.evacuate inst ~dead:(fun _ -> false) f in
  check_true "no partition" (partitioned = []);
  check_true "flow bit-untouched"
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       before (Vec.to_array f))

let test_evacuate_rescales_proportionally () =
  let inst = Common.parallel 4 in
  let f = vec [| 0.4; 0.2; 0.3; 0.1 |] in
  let partitioned = Flow.evacuate inst ~dead:(fun p -> p = 0) f in
  check_true "no partition" (partitioned = []);
  check_close "dead path zeroed" 0. (Vec.get f 0);
  check_true "still feasible" (Flow.is_feasible ~tol:1e-12 inst f);
  (* Survivors keep their relative proportions: 0.2:0.3:0.1 scaled by
     1/0.6. *)
  check_close ~eps:1e-12 "survivor 1" (0.2 /. 0.6) (Vec.get f 1);
  check_close ~eps:1e-12 "survivor 2" (0.3 /. 0.6) (Vec.get f 2);
  check_close ~eps:1e-12 "survivor 3" (0.1 /. 0.6) (Vec.get f 3)

let test_evacuate_uniform_when_alive_mass_zero () =
  let inst = Common.parallel 4 in
  let f = vec [| 0.5; 0.5; 0.; 0. |] in
  let partitioned = Flow.evacuate inst ~dead:(fun p -> p < 2) f in
  check_true "no partition" (partitioned = []);
  check_true "still feasible" (Flow.is_feasible ~tol:1e-12 inst f);
  check_close "uniform split on the zero-mass survivors" 0.5 (Vec.get f 2);
  check_close "uniform split on the zero-mass survivors" 0.5 (Vec.get f 3)

let test_evacuate_reports_partition () =
  let inst = Common.parallel 3 in
  let f = Flow.uniform inst in
  let before = Vec.to_array f in
  let partitioned = Flow.evacuate inst ~dead:(fun _ -> true) f in
  check_true "commodity reported partitioned" (partitioned = [ 0 ]);
  check_true "partitioned flow left untouched"
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       before (Vec.to_array f))

let test_evacuate_multi_commodity () =
  let inst = Common.two_commodity () in
  let f = Flow.uniform inst in
  (* Kill every path of commodity 1 but none of commodity 0. *)
  let c1 = Array.to_list (Array.map (fun p -> p)
      (Instance.paths_of_commodity inst 1)) in
  let partitioned = Flow.evacuate inst ~dead:(fun p -> List.mem p c1) f in
  check_true "only commodity 1 partitioned" (partitioned = [ 1 ]);
  Array.iter
    (fun p ->
      check_close "commodity 0 untouched" (Vec.get (Flow.uniform inst) p)
        (Vec.get f p))
    (Instance.paths_of_commodity inst 0)

let suite =
  [
    case "uniform feasible" test_uniform_feasible;
    case "concentrated" test_concentrated;
    case "random feasible" test_random_feasible;
    case "feasibility detection" test_is_feasible_detects_violations;
    case "projection repairs" test_project_repairs;
    case "projection identity" test_project_identity_on_feasible;
    case "projection vanish" test_project_vanished_mass;
    case "projection in place" test_project_in_place_matches;
    case "edge flows (braess)" test_edge_flows_braess;
    case "edge flow conservation" test_edge_flow_conservation;
    prop_edge_flows_match_reference;
    case "path latency additivity" test_path_latencies_additive;
    case "commodity aggregates" test_commodity_aggregates;
    case "multi-commodity averages" test_avg_respects_demand_scaling;
    prop_random_flows_feasible;
    prop_project_idempotent;
    prop_project_finite_feasible;
    case "project rejects non-finite" test_project_rejects_non_finite;
    prop_project_rejects_any_non_finite;
    prop_project_in_place_propagates_nan;
    case "evacuate: no dead paths inert" test_evacuate_no_dead_is_inert;
    case "evacuate: proportional rescale" test_evacuate_rescales_proportionally;
    case "evacuate: uniform fallback" test_evacuate_uniform_when_alive_mass_zero;
    case "evacuate: partition reported" test_evacuate_reports_partition;
    case "evacuate: multi-commodity" test_evacuate_multi_commodity;
  ]
