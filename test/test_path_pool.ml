(* Column-generation path sets (DESIGN.md §11): the pricing oracle, the
   three seed modes, replay, and the two differential contracts — a
   colgen run reaches the enumerated equilibrium on small instances,
   and a Full-seeded pool is bitwise inert (identical traces and flows
   to a plain run, under RK4 phases and under synchronous rounds). *)

open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Gen = Staleroute_graph.Gen
module Digraph = Staleroute_graph.Digraph
module Path = Staleroute_graph.Path
module Path_enum = Staleroute_graph.Path_enum
module Dijkstra = Staleroute_graph.Dijkstra
module Latency = Staleroute_latency.Latency
module Rng = Staleroute_util.Rng
module Vec = Staleroute_util.Vec
module Probe = Staleroute_obs.Probe
module Trace_export = Staleroute_obs.Trace_export

(* Seeded layered workload, the E18 recipe at test sizes: graph,
   affine latencies, a single unit commodity. *)
let workload ?(layers = 3) ?(width = 3) ?(edge_prob = 0.7)
    ?(skip_prob = 0.) seed =
  let rng = Rng.create ~seed () in
  let st = Gen.layered_skips ~skip_prob ~rng ~layers ~width ~edge_prob in
  let m = Digraph.edge_count st.Gen.graph in
  let latencies =
    Array.init m (fun _ ->
        Latency.affine
          ~slope:(0.25 +. Rng.float rng 1.5)
          ~intercept:(Rng.float rng 0.3))
  in
  let commodities =
    [ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
  in
  (st, latencies, commodities)

let pool_of ?tolerance ?seed (st, latencies, commodities) =
  Path_pool.create ?tolerance ?seed ~graph:st.Gen.graph ~latencies
    ~commodities ()

(* A posted edge-latency vector: each edge's latency evaluated at a
   random load — any nonnegative vector is a legal posting. *)
let posted (st, latencies, _) r =
  ignore st;
  Array.map (fun l -> Latency.eval l (Rng.float r 1.)) latencies

let posted_path_cost ~edge_latencies path =
  Array.fold_left
    (fun acc e -> acc +. edge_latencies.(e))
    0. (Path.edge_id_array path)

(* Cheapest *active* posted latency of a commodity. *)
let incumbent_of inst ~edge_latencies c =
  Array.fold_left
    (fun acc p ->
      Float.min acc (posted_path_cost ~edge_latencies (Instance.path inst p)))
    Float.infinity
    (Instance.paths_of_commodity inst c)

let growth_key g =
  (g.Path_pool.commodity, Path.edge_ids g.Path_pool.path)

(* --- Seeds --- *)

let test_shortest_seed () =
  let ((st, latencies, _) as w) = workload 7 in
  let pool = pool_of w in
  let inst = Path_pool.instance pool in
  check_int "one column per commodity" 1 (Instance.path_count inst);
  let zero = Array.map (fun l -> Latency.eval l 0.) latencies in
  match
    Dijkstra.shortest_path st.Gen.graph ~weights:zero ~src:st.Gen.src
      ~dst:st.Gen.dst
  with
  | None -> Alcotest.fail "commodity unreachable"
  | Some (_, dist) ->
      check_close "seed path is the zero-flow best response" dist
        (posted_path_cost ~edge_latencies:zero (Instance.path inst 0))

let test_full_seed_inert () =
  let ((st, _, _) as w) = workload 7 in
  let pool = pool_of ~seed:Path_pool.Full w in
  let inst = Path_pool.instance pool in
  (match
     Path_enum.count_paths_dag st.Gen.graph ~src:st.Gen.src ~dst:st.Gen.dst
   with
  | Some n ->
      check_int "full seed enumerates everything" (int_of_float n)
        (Instance.path_count inst)
  | None -> Alcotest.fail "layered graph must be acyclic");
  let r = rng () in
  for _ = 1 to 10 do
    let lat = posted w r in
    check_true "growth never fires on a full seed"
      (Path_pool.grow pool inst ~edge_latencies:lat = None)
  done

let test_paths_seed () =
  let ((st, _, _) as w) = workload 7 in
  let full = Path_pool.instance (pool_of ~seed:Path_pool.Full w) in
  let chosen =
    [| [ Instance.path full 0; Instance.path full 1 ] |]
  in
  let pool = pool_of ~seed:(Path_pool.Paths chosen) w in
  let inst = Path_pool.instance pool in
  check_int "explicit seed size" 2 (Instance.path_count inst);
  check_true "explicit seed paths preserved in order"
    (Path.equal (Instance.path inst 0) (Instance.path full 0)
    && Path.equal (Instance.path inst 1) (Instance.path full 1));
  ignore st

let test_unreachable_commodity_rejected () =
  let st = Gen.parallel_links 2 in
  (* A commodity from dst to src: no path exists in the DAG. *)
  check_raises_invalid "unreachable commodity" (fun () ->
      Path_pool.create ~graph:st.Gen.graph
        ~latencies:(Array.make 2 (Latency.const 1.))
        ~commodities:[ Commodity.single ~src:st.Gen.dst ~dst:st.Gen.src ]
        ())

(* --- The pricing oracle --- *)

let workload_gen =
  QCheck2.Gen.(
    quad (int_range 0 1_000_000) (int_range 2 4) (int_range 2 4)
      (int_range 0 1_000_000))

let prop_admissions_undercut =
  qcheck ~count:100 "qcheck: admitted column undercuts the active minimum"
    workload_gen
    (fun (seed, layers, width, lseed) ->
      let ((st, _, _) as w) = workload ~layers ~width seed in
      let pool = pool_of w in
      let inst = Path_pool.instance pool in
      let lat = posted w (Rng.create ~seed:lseed ()) in
      let tol = Path_pool.tolerance pool in
      List.for_all
        (fun g ->
          let cost = posted_path_cost ~edge_latencies:lat g.Path_pool.path in
          let inc = incumbent_of inst ~edge_latencies:lat g.Path_pool.commodity in
          (* The reported numbers are the recomputed ones… *)
          Float.abs (cost -. g.Path_pool.cost) <= 1e-9
          && Float.abs (inc -. g.Path_pool.incumbent) <= 1e-9
          (* …the admission strictly undercuts by more than tol… *)
          && g.Path_pool.cost < g.Path_pool.incumbent -. tol
          (* …the column is the true best response (Dijkstra optimum)… *)
          && (match
                Dijkstra.shortest_path st.Gen.graph ~weights:lat
                  ~src:st.Gen.src ~dst:st.Gen.dst
              with
             | Some (_, d) -> Float.abs (d -. g.Path_pool.cost) <= 1e-9
             | None -> false)
          (* …and it is genuinely new. *)
          && not
               (Array.exists
                  (fun p -> Path.equal (Instance.path inst p) g.Path_pool.path)
                  (Instance.paths_of_commodity inst g.Path_pool.commodity)))
        (Path_pool.price pool inst ~edge_latencies:lat))

let prop_price_pure =
  qcheck ~count:100 "qcheck: price is pure in (active set, posting, tol)"
    workload_gen
    (fun (seed, layers, width, lseed) ->
      let w = workload ~layers ~width seed in
      let lat = posted w (Rng.create ~seed:lseed ()) in
      let run () =
        let pool = pool_of w in
        let inst = Path_pool.instance pool in
        List.map growth_key (Path_pool.price pool inst ~edge_latencies:lat)
      in
      (* Two calls on one pool, and a call on an independently rebuilt
         pool: all identical — no hidden state, no RNG. *)
      let pool = pool_of w in
      let inst = Path_pool.instance pool in
      let a = List.map growth_key (Path_pool.price pool inst ~edge_latencies:lat) in
      let b = List.map growth_key (Path_pool.price pool inst ~edge_latencies:lat) in
      a = b && a = run ())

let prop_growth_fixpoint =
  qcheck ~count:100 "qcheck: growth under one posting reaches a fixpoint"
    workload_gen
    (fun (seed, layers, width, lseed) ->
      let w = workload ~layers ~width seed in
      let pool = pool_of w in
      let lat = posted w (Rng.create ~seed:lseed ()) in
      let inst0 = Path_pool.instance pool in
      match Path_pool.grow pool inst0 ~edge_latencies:lat with
      | None ->
          (* Seed already optimal under this posting: stays None. *)
          Path_pool.grow pool inst0 ~edge_latencies:lat = None
      | Some (inst1, adds) ->
          (* The admitted column is the Dijkstra optimum, so a second
             price against the same posting finds nothing cheaper. *)
          adds <> []
          && Path_pool.grow pool inst1 ~edge_latencies:lat = None
          (* No duplicates in the grown active set. *)
          &&
          let n = Instance.path_count inst1 in
          let distinct = ref true in
          for p = 0 to n - 1 do
            for q = p + 1 to n - 1 do
              if Path.equal (Instance.path inst1 p) (Instance.path inst1 q)
              then distinct := false
            done
          done;
          !distinct)

(* A grid with edges both ways has cycles: pricing keeps Dijkstra, and
   every admitted column is Dijkstra's path at Dijkstra's cost. *)
let test_cyclic_grid_prices_with_dijkstra () =
  let w = 3 in
  let node x y = (y * w) + x in
  let edges = ref [] in
  for y = 0 to w - 1 do
    for x = 0 to w - 1 do
      let both a b = edges := (a, b) :: (b, a) :: !edges in
      if x + 1 < w then both (node x y) (node (x + 1) y);
      if y + 1 < w then both (node x y) (node x (y + 1))
    done
  done;
  let graph = Digraph.create ~nodes:(w * w) ~edges:(List.rev !edges) in
  check_true "the grid is cyclic" (Digraph.dag graph = None);
  let m = Digraph.edge_count graph in
  let latencies =
    Array.init m (fun e ->
        Latency.affine ~slope:(1. +. float_of_int (e mod 3)) ~intercept:0.1)
  in
  let dst = node (w - 1) (w - 1) in
  let commodities = [ Commodity.single ~src:0 ~dst ] in
  let pool = Path_pool.create ~graph ~latencies ~commodities () in
  let inst = Path_pool.instance pool in
  let r = rng () in
  let admitted = ref 0 in
  for _ = 1 to 20 do
    let lat = Array.init m (fun _ -> Rng.float r 1.) in
    List.iter
      (fun g ->
        incr admitted;
        match Dijkstra.shortest_path graph ~weights:lat ~src:0 ~dst with
        | Some (p, cost) ->
            check_true "Dijkstra's path" (Path.equal p g.Path_pool.path);
            check_true "Dijkstra's cost bits"
              (Int64.bits_of_float cost = Int64.bits_of_float g.Path_pool.cost)
        | None -> Alcotest.fail "reachable")
      (Path_pool.price pool inst ~edge_latencies:lat)
  done;
  check_true "some postings admit a column" (!admitted > 0);
  check_raises_invalid "negative posted latency" (fun () ->
      Path_pool.price pool inst
        ~edge_latencies:(Array.init m (fun e -> if e = 3 then -1. else 1.)))

let test_huge_tolerance_inert () =
  let w = workload 7 in
  let pool = pool_of ~tolerance:1e9 w in
  let inst = Path_pool.instance pool in
  let r = rng () in
  for _ = 1 to 10 do
    check_true "tolerance dominates every undercut"
      (Path_pool.grow pool inst ~edge_latencies:(posted w r) = None)
  done

let test_bad_tolerance_rejected () =
  let w = workload 7 in
  check_raises_invalid "negative tolerance" (fun () ->
      pool_of ~tolerance:(-1e-3) w);
  check_raises_invalid "nan tolerance" (fun () ->
      pool_of ~tolerance:Float.nan w)

let test_arity_mismatch_rejected () =
  let w = workload 7 in
  let pool = pool_of w in
  check_raises_invalid "edge-latency arity" (fun () ->
      Path_pool.price pool (Path_pool.instance pool)
        ~edge_latencies:[| 1.; 2. |])

(* --- Replay --- *)

(* Grow through a few postings, recording admissions the way a
   Driver.snapshot does. *)
let grow_chain w pool rounds =
  let r = rng ~seed:99 () in
  let inst = ref (Path_pool.instance pool) in
  let grown = ref [] in
  for _ = 1 to rounds do
    match Path_pool.grow pool !inst ~edge_latencies:(posted w r) with
    | None -> ()
    | Some (inst', adds) ->
        inst := inst';
        grown :=
          !grown
          @ List.map
              (fun g ->
                (g.Path_pool.commodity, Path.edge_id_array g.Path_pool.path))
              adds
  done;
  (!inst, !grown)

let test_replay_round_trip () =
  let w = workload ~layers:4 ~width:4 11 in
  let pool = pool_of w in
  let inst, grown = grow_chain w pool 8 in
  check_true "chain grew (workload regression guard)" (grown <> []);
  let replayed = Path_pool.replay pool ~grown in
  check_int "replay path count" (Instance.path_count inst)
    (Instance.path_count replayed);
  for p = 0 to Instance.path_count inst - 1 do
    check_true "replay preserves paths and order"
      (Path.equal (Instance.path inst p) (Instance.path replayed p))
  done;
  check_int "empty replay is the seed"
    (Instance.path_count (Path_pool.instance pool))
    (Instance.path_count (Path_pool.replay pool ~grown:[]))

let test_replay_refuses_tampering () =
  let w = workload ~layers:4 ~width:4 11 in
  let pool = pool_of w in
  let _, grown = grow_chain w pool 8 in
  let st, _, _ = w in
  let m = Digraph.edge_count st.Gen.graph in
  check_raises_invalid "edited edge ids" (fun () ->
      Path_pool.replay pool
        ~grown:
          (List.map
             (fun (c, es) -> (c, Array.map (fun e -> (e + 1) mod m) es))
             grown));
  check_raises_invalid "edge id out of range" (fun () ->
      Path_pool.replay pool
        ~grown:(List.map (fun (c, _) -> (c, [| m |])) grown));
  check_raises_invalid "commodity out of range" (fun () ->
      Path_pool.replay pool ~grown:(List.map (fun (_, es) -> (7, es)) grown))

(* --- The colgen judge vs the enumerating judge --- *)

let test_judges_agree_on_full_pool () =
  let w = workload 7 in
  let pool = pool_of ~seed:Path_pool.Full w in
  let inst = Path_pool.instance pool in
  let eq = Frank_wolfe.equilibrium inst in
  let r = rng () in
  let flows = [ Flow.uniform inst; eq.Frank_wolfe.flow; Flow.random inst r ] in
  List.iter
    (fun f ->
      List.iter
        (fun delta ->
          check_close ~eps:1e-9 "unsatisfied volume agrees"
            (Equilibrium.unsatisfied_volume inst f ~delta)
            (Path_pool.unsatisfied_volume pool inst f ~delta))
        [ 0.05; 0.25; 1. ])
    flows

(* --- Differential: colgen dynamics = enumerated dynamics --- *)

(* Uniform sampling (proportional sampling cannot discover zero-flow
   grown columns) with ell_max over the whole implicit path set. *)
let colgen_policy ~layers (_, latencies, _) =
  let worst =
    Array.fold_left
      (fun acc l -> Float.max acc (Latency.eval l 1.))
      0. latencies
  in
  Policy.make ~sampling:Sampling.Uniform
    ~migration:
      (Migration.Linear { ell_max = float_of_int (layers + 1) *. worst })

let config ?(steps = 10) ~policy ~t ~phases () =
  {
    Driver.policy;
    staleness = Driver.Stale t;
    phases;
    steps_per_phase = steps;
    scheme = Integrator.Rk4;
  }

let safe_period ~layers policy inst =
  let d = float_of_int (layers + 1) in
  let beta = Instance.beta inst in
  let alpha = Option.get (Policy.alpha policy) in
  if beta = 0. || alpha = 0. then 1.
  else Float.min 1. (1. /. (4. *. d *. alpha *. beta))

(* [pin] is the expected (active, enumerated) column counts and the
   potentials' relative difference, where a seed has them recorded. *)
let differential_case ?pin ~phases ~steps seed () =
  let layers = 3 in
  let w = workload ~layers seed in
  let policy = colgen_policy ~layers w in
  let full_inst = Path_pool.instance (pool_of ~seed:Path_pool.Full w) in
  let t = safe_period ~layers policy full_inst in
  let cfg = config ~steps ~policy ~t ~phases () in
  let pool = pool_of w in
  let seed_inst = Path_pool.instance pool in
  let colgen =
    Driver.run ~colgen:pool seed_inst cfg
      ~init:(Flow.concentrated seed_inst ~on:(fun _ -> 0))
  in
  let enum =
    Driver.run full_inst cfg
      ~init:(Flow.concentrated full_inst ~on:(fun _ -> 0))
  in
  let delta = 0.25 in
  check_true "colgen run reaches a delta-equilibrium (judged on the full graph)"
    (Path_pool.unsatisfied_volume pool colgen.Driver.final_instance
       colgen.Driver.final_flow ~delta
    <= 1e-3);
  check_true "enumerated run reaches a delta-equilibrium"
    (Equilibrium.unsatisfied_volume full_inst enum.Driver.final_flow ~delta
    <= 1e-3);
  let phi_c =
    Potential.phi colgen.Driver.final_instance colgen.Driver.final_flow
  in
  let phi_e = Potential.phi full_inst enum.Driver.final_flow in
  let rel = Float.abs (phi_c -. phi_e) /. Float.max 1e-9 (Float.abs phi_e) in
  check_true "potentials agree to 1% (same equilibrium)" (rel <= 1e-2);
  let active = Instance.path_count colgen.Driver.final_instance in
  check_true "active set within the enumerated set"
    (active <= Instance.path_count full_inst);
  Option.iter
    (fun (want_active, want_enumerated, want_rel) ->
      check_int "active columns" want_active active;
      check_int "enumerated columns" want_enumerated
        (Instance.path_count full_inst);
      check_close ~eps:1e-6 "potentials' relative difference" want_rel rel)
    pin

(* --- Growth on a graph no enumeration could hold --- *)

(* A seeded 66-layer DAG of more than 10^4 edges and over 10^30 simple
   paths: the run grows a few hundred columns, one per growth event,
   and ends delta-satisfied on the full graph. *)
let test_large_dag_growth () =
  let layers = 66 in
  let ((st, _, _) as w) =
    workload ~layers ~width:16 ~edge_prob:0.6 ~skip_prob:0.05 22
  in
  let pool = pool_of w in
  let policy = colgen_policy ~layers w in
  let seed_inst = Path_pool.instance pool in
  let metrics = Staleroute_obs.Metrics.create () in
  let result =
    Driver.run ~metrics ~colgen:pool seed_inst
      (config ~steps:12 ~policy
         ~t:(safe_period ~layers policy seed_inst)
         ~phases:800 ())
      ~init:(Flow.concentrated seed_inst ~on:(fun _ -> 0))
  in
  check_int "edges" 11_233 (Digraph.edge_count st.Gen.graph);
  let enumerable =
    Option.get
      (Path_enum.count_paths_dag st.Gen.graph ~src:st.Gen.src ~dst:st.Gen.dst)
  in
  check_true "enumerable paths beyond 10^30" (enumerable >= 1e30);
  check_int "active columns" 356
    (Instance.path_count result.Driver.final_instance);
  check_int "columns grown" 355
    (Staleroute_obs.Metrics.count
       (Staleroute_obs.Metrics.counter metrics "paths_grown"));
  check_true "final flow finite"
    (Vec.for_all Float.is_finite result.Driver.final_flow);
  check_true "delta-satisfied (delta = 0.5)"
    (Path_pool.unsatisfied_volume pool result.Driver.final_instance
       result.Driver.final_flow ~delta:0.5
    <= 1e-3)

(* --- Full seed: colgen must be bitwise inert --- *)

let flows_bitwise_equal a b =
  Array.for_all2
    (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
    (Vec.to_array a) (Vec.to_array b)

let test_full_seed_driver_bitwise () =
  let layers = 3 in
  let w = workload ~layers 7 in
  let pool = pool_of ~seed:Path_pool.Full w in
  let inst = Path_pool.instance pool in
  let policy = colgen_policy ~layers w in
  let cfg = config ~policy ~t:(safe_period ~layers policy inst) ~phases:25 () in
  let run ?colgen () =
    let buf = Probe.Memory.create () in
    let result =
      Driver.run
        ~probe:(Probe.Memory.probe buf)
        ?colgen inst cfg ~init:(Flow.uniform inst)
    in
    (Trace_export.events_to_string (Probe.Memory.events buf), result)
  in
  let trace_plain, plain = run () in
  let trace_colgen, colgen = run ~colgen:pool () in
  check_true "trace byte-identical" (String.equal trace_plain trace_colgen);
  check_true "final flow bit-identical"
    (flows_bitwise_equal plain.Driver.final_flow colgen.Driver.final_flow);
  check_true "final instance is the input instance"
    (colgen.Driver.final_instance == inst)

let test_full_seed_discrete_bitwise () =
  let layers = 3 in
  let w = workload ~layers 7 in
  let pool = pool_of ~seed:Path_pool.Full w in
  let inst = Path_pool.instance pool in
  let policy = colgen_policy ~layers w in
  (* Synchronous rounds: Euler steps of h = 1, four per update. *)
  let cfg = rounds_config ~per_update:4 policy ~updates:10 in
  let run ?colgen () = Driver.run ?colgen inst cfg ~init:(Flow.uniform inst) in
  let plain = run () and colgen = run ~colgen:pool () in
  check_true "final flow bit-identical"
    (flows_bitwise_equal plain.Driver.final_flow colgen.Driver.final_flow);
  check_true "final instance is the input instance"
    (colgen.Driver.final_instance == inst)

(* --- Growth through the dynamics --- *)

let test_driver_grows_and_discrete_agree_on_purity () =
  (* Same pool configuration, one Driver run and one rebuilt pool run:
     growth is a pure function of the posting stream, so two identical
     runs admit identical columns in identical order. *)
  let layers = 4 in
  let w = workload ~layers ~width:4 ~skip_prob:0.15 13 in
  let policy = colgen_policy ~layers w in
  let run () =
    let pool = pool_of w in
    let inst = Path_pool.instance pool in
    let cfg =
      config ~policy ~t:(safe_period ~layers policy inst) ~phases:30 ()
    in
    let buf = Probe.Memory.create () in
    let result =
      Driver.run
        ~probe:(Probe.Memory.probe buf)
        ~colgen:pool inst cfg
        ~init:(Flow.concentrated inst ~on:(fun _ -> 0))
    in
    let growth =
      Probe.Memory.events buf |> Array.to_list
      |> List.filter_map (function
           | Probe.Path_growth { commodity; path_count; _ } ->
               Some (commodity, path_count)
           | _ -> None)
    in
    (result, growth)
  in
  let result_a, growth_a = run () in
  let result_b, growth_b = run () in
  check_true "growth actually happened" (growth_a <> []);
  check_true "identical runs grow identically" (growth_a = growth_b);
  check_true "identical runs end bit-identical"
    (flows_bitwise_equal result_a.Driver.final_flow result_b.Driver.final_flow);
  check_int "final instance reflects growth"
    (1 + List.length growth_a)
    (Instance.path_count result_a.Driver.final_instance);
  (* The driver refuses an instance that is not the pool's seed. *)
  let pool = pool_of w in
  let other = Path_pool.instance (pool_of w) in
  check_raises_invalid "foreign instance refused" (fun () ->
      Driver.run ~colgen:pool other
        (config ~policy ~t:0.25 ~phases:1 ())
        ~init:(Flow.concentrated other ~on:(fun _ -> 0)))

let suite =
  [
    case "shortest seed = zero-flow best response" test_shortest_seed;
    case "full seed enumerates; growth inert" test_full_seed_inert;
    case "explicit paths seed" test_paths_seed;
    case "unreachable commodity rejected" test_unreachable_commodity_rejected;
    prop_admissions_undercut;
    prop_price_pure;
    prop_growth_fixpoint;
    case "cyclic grid prices with Dijkstra"
      test_cyclic_grid_prices_with_dijkstra;
    case "huge tolerance admits nothing" test_huge_tolerance_inert;
    case "invalid tolerance rejected" test_bad_tolerance_rejected;
    case "posting arity mismatch rejected" test_arity_mismatch_rejected;
    case "replay round-trips recorded growth" test_replay_round_trip;
    case "replay refuses tampered records" test_replay_refuses_tampering;
    case "colgen judge = enumerating judge (full pool)"
      test_judges_agree_on_full_pool;
    slow_case "differential: colgen = enumerated (seed 7)"
      (differential_case ~phases:350 ~steps:10 7);
    slow_case "differential: colgen = enumerated (seed 23)"
      (differential_case ~phases:350 ~steps:10 23);
    slow_case "differential: colgen = enumerated (seed 5)"
      (differential_case
         ~pin:(11, 17, 0.0016792923232535604)
         ~phases:400 ~steps:12 5);
    case "full seed: driver bitwise inert" test_full_seed_driver_bitwise;
    case "full seed: discrete bitwise inert" test_full_seed_discrete_bitwise;
    slow_case "driver growth is pure and reflected in the result"
      test_driver_grows_and_discrete_agree_on_purity;
    slow_case "growth on a 10^4-edge layered DAG" test_large_dag_growth;
  ]
