open Helpers
open Staleroute_graph
open Staleroute_wardrop
module L = Staleroute_latency.Latency

let braess_inst () = Staleroute_experiments.Common.braess ()

let test_commodity_validation () =
  check_raises_invalid "zero demand" (fun () ->
      ignore (Commodity.make ~src:0 ~dst:1 ~demand:0.));
  check_raises_invalid "src = dst" (fun () ->
      ignore (Commodity.make ~src:1 ~dst:1 ~demand:1.));
  check_raises_invalid "NaN demand" (fun () ->
      ignore (Commodity.make ~src:0 ~dst:1 ~demand:Float.nan));
  check_raises_invalid "infinite demand" (fun () ->
      ignore (Commodity.make ~src:0 ~dst:1 ~demand:Float.infinity));
  let c = Commodity.single ~src:0 ~dst:1 in
  check_close "single demand" 1. c.Commodity.demand

let test_non_finite_latency_rejected () =
  (* A latency whose slope bound is non-finite poisons beta / ell_max;
     Instance.create must reject it up front (NaN coefficients are
     already rejected by the Latency constructors themselves). *)
  let st = Gen.parallel_links 2 in
  check_raises_invalid "infinite slope" (fun () ->
      ignore
        (Instance.create ~graph:st.Gen.graph
           ~latencies:[| L.linear Float.infinity; L.linear 1. |]
           ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
           ()));
  check_raises_invalid "NaN latency coefficient" (fun () ->
      ignore (L.const Float.nan))

let test_braess_structure () =
  let inst = braess_inst () in
  check_int "paths" 3 (Instance.path_count inst);
  check_int "commodities" 1 (Instance.commodity_count inst);
  check_int "D" 3 (Instance.max_path_length inst);
  check_close "beta" 1. (Instance.beta inst);
  (* lmax: worst path is s-v-w-t with l(1)=1, 0, 1 -> 2; top route
     1 + 1 = 2 as well. *)
  check_close "lmax" 2. (Instance.ell_max inst);
  check_int "max paths in a commodity" 3 (Instance.max_paths_in_commodity inst)

let test_path_commodity_maps () =
  let inst = braess_inst () in
  for p = 0 to Instance.path_count inst - 1 do
    check_int "single commodity" 0 (Instance.commodity_of_path inst p)
  done;
  let ps = Instance.paths_of_commodity inst 0 in
  check_int "all paths belong to commodity 0" 3 (Array.length ps);
  Array.iteri (fun i p -> check_int "identity layout" i p) ps

let test_demand_normalisation_enforced () =
  let st = Gen.parallel_links 2 in
  check_raises_invalid "unnormalised demand" (fun () ->
      ignore
        (Instance.create ~graph:st.Gen.graph
           ~latencies:[| L.const 1.; L.const 1. |]
           ~commodities:[ Commodity.make ~src:0 ~dst:1 ~demand:2. ]
           ()))

let test_multicommodity () =
  (* Two commodities sharing the middle edge of a 3-node line plus a
     bypass edge. *)
  let graph =
    Digraph.create ~nodes:3 ~edges:[ (0, 1); (1, 2); (0, 2) ]
  in
  let inst =
    Instance.create ~graph
      ~latencies:[| L.linear 1.; L.linear 1.; L.const 1. |]
      ~commodities:
        [
          Commodity.make ~src:0 ~dst:2 ~demand:0.6;
          Commodity.make ~src:1 ~dst:2 ~demand:0.4;
        ]
      ()
  in
  check_int "commodities" 2 (Instance.commodity_count inst);
  (* Commodity 0 has two paths (0-1-2 and 0-2), commodity 1 one. *)
  check_int "total paths" 3 (Instance.path_count inst);
  check_int "c0 paths" 2 (Array.length (Instance.paths_of_commodity inst 0));
  check_int "c1 paths" 1 (Array.length (Instance.paths_of_commodity inst 1));
  check_close "demand 0" 0.6 (Instance.demand inst 0);
  check_close "demand 1" 0.4 (Instance.demand inst 1);
  let p = (Instance.paths_of_commodity inst 1).(0) in
  check_int "c1's path belongs to c1" 1 (Instance.commodity_of_path inst p)

let test_latency_array_length_checked () =
  let st = Gen.parallel_links 2 in
  check_raises_invalid "latency arity" (fun () ->
      ignore
        (Instance.create ~graph:st.Gen.graph ~latencies:[| L.const 1. |]
           ~commodities:[ Commodity.single ~src:0 ~dst:1 ]
           ()))

let test_no_path_rejected () =
  let graph = Digraph.create ~nodes:3 ~edges:[ (0, 1) ] in
  check_raises_invalid "unreachable commodity" (fun () ->
      ignore
        (Instance.create ~graph ~latencies:[| L.const 1. |]
           ~commodities:[ Commodity.single ~src:0 ~dst:2 ]
           ()))

let test_path_cap_respected () =
  let st = Gen.ladder 6 in
  let m = Digraph.edge_count st.Gen.graph in
  match
    Instance.create ~max_paths_per_commodity:10 ~graph:st.Gen.graph
      ~latencies:(Array.init m (fun _ -> L.const 1.))
      ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
      ()
  with
  | exception Instance.Path_set_too_large { commodity = 0; cap = 10 } -> ()
  | exception Instance.Path_set_too_large _ ->
      Alcotest.fail "cap error carries the wrong commodity or cap"
  | _ -> Alcotest.fail "expected path-cap overflow"

let test_path_cap_boundary () =
  (* ladder 6 has exactly 2^6 = 64 simple paths: a cap of 64 is the
     largest admissible set, 63 is one short. *)
  let st = Gen.ladder 6 in
  let m = Digraph.edge_count st.Gen.graph in
  let build cap =
    Instance.create ~max_paths_per_commodity:cap ~graph:st.Gen.graph
      ~latencies:(Array.init m (fun _ -> L.const 1.))
      ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
      ()
  in
  check_int "cap = count admits everything" 64 (Instance.path_count (build 64));
  match build 63 with
  | exception Instance.Path_set_too_large { commodity = 0; cap = 63 } -> ()
  | _ -> Alcotest.fail "cap = count - 1 must overflow"

(* Column-generation growth: columns append at the end of the global
   index, existing indices stay stable, structural constants follow. *)
let test_extend_appends_columns () =
  let st = Gen.braess () in
  let latencies =
    [| L.linear 1.; L.const 1.; L.const 1.; L.linear 1.; L.const 0. |]
  in
  let commodities = [ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ] in
  let full =
    Instance.create ~graph:st.Gen.graph ~latencies ~commodities ()
  in
  let seed =
    Instance.of_paths ~graph:st.Gen.graph ~latencies ~commodities
      ~paths:[| [ Instance.path full 0; Instance.path full 2 ] |]
      ()
  in
  let grown = Instance.extend seed ~paths:[ (0, Instance.path full 1) ] in
  check_int "one column appended" 3 (Instance.path_count grown);
  check_true "old indices stable"
    (Path.equal (Instance.path grown 0) (Instance.path seed 0)
    && Path.equal (Instance.path grown 1) (Instance.path seed 1));
  check_true "new column at the end"
    (Path.equal (Instance.path grown 2) (Instance.path full 1));
  check_int "commodity map extended" 0 (Instance.commodity_of_path grown 2);
  check_int "seed untouched" 2 (Instance.path_count seed);
  (* Structural constants now see the long bridge path. *)
  check_int "max_path_length grows" (Instance.max_path_length full)
    (Instance.max_path_length grown);
  check_close "ell_max follows the grown set" (Instance.ell_max full)
    (Instance.ell_max grown);
  (* CSR incidence stays consistent with per-path edges. *)
  for p = 0 to Instance.path_count grown - 1 do
    let from_csr =
      Array.sub (Instance.csr_edges grown)
        (Instance.csr_offsets grown).(p)
        ((Instance.csr_offsets grown).(p + 1)
        - (Instance.csr_offsets grown).(p))
    in
    check_true "csr row = path edges" (from_csr = Instance.path_edges grown p)
  done;
  (* Frame errors are loud. *)
  check_raises_invalid "commodity out of range" (fun () ->
      Instance.extend seed ~paths:[ (1, Instance.path full 1) ]);
  check_raises_invalid "endpoint mismatch" (fun () ->
      let wrong = Path.of_edges st.Gen.graph [ 4 ] in
      Instance.extend seed ~paths:[ (0, wrong) ])

let test_accessor_bounds () =
  let inst = braess_inst () in
  check_raises_invalid "path index" (fun () -> ignore (Instance.path inst 3));
  check_raises_invalid "latency index" (fun () ->
      ignore (Instance.latency inst 9));
  check_raises_invalid "commodity index" (fun () ->
      ignore (Instance.commodity inst 1))

let test_local_index_inverts_paths_of_commodity () =
  let inst = Staleroute_experiments.Common.two_commodity () in
  for ci = 0 to Instance.commodity_count inst - 1 do
    Array.iteri
      (fun j p ->
        check_int
          (Printf.sprintf "local index of path %d" p)
          j
          (Instance.local_index_of_path inst p))
      (Instance.paths_of_commodity inst ci)
  done;
  check_raises_invalid "local index bounds" (fun () ->
      ignore (Instance.local_index_of_path inst (Instance.path_count inst)))

let test_csr_incidence_matches_path_edges () =
  let inst = Staleroute_experiments.Common.grid33 () in
  let offsets = Instance.csr_offsets inst in
  let edges = Instance.csr_edges inst in
  check_int "offset table length" (Instance.path_count inst + 1)
    (Array.length offsets);
  for p = 0 to Instance.path_count inst - 1 do
    let expected = Instance.path_edges inst p in
    check_int "edge count" (Array.length expected)
      (offsets.(p + 1) - offsets.(p));
    Array.iteri
      (fun k e -> check_int "edge id" e edges.(offsets.(p) + k))
      expected
  done

let test_needle_constants () =
  let inst = Staleroute_experiments.Common.needle 8 in
  check_close "beta from the good link" 1. (Instance.beta inst);
  check_close "lmax from the bad links" 2. (Instance.ell_max inst);
  check_int "D = 1 on parallel links" 1 (Instance.max_path_length inst)


(* --- extend chains against a from-scratch build --- *)

module Rng = Staleroute_util.Rng

(* A small layered DAG, about a quarter of its edges doubled. *)
let doubled_dag r =
  let st =
    Gen.layered_skips ~skip_prob:0.3 ~rng:r ~layers:(2 + Rng.int r 3)
      ~width:(2 + Rng.int r 2) ~edge_prob:0.6
  in
  (with_parallel_edges r st.Gen.graph, st)

let latency_of r =
  match Rng.int r 3 with
  | 0 -> L.affine ~slope:(Rng.float r 2.) ~intercept:(Rng.float r 0.3)
  | 1 -> L.mm1 ~capacity:(1.5 +. Rng.float r 3.)
  | _ -> L.shift (Rng.float r 0.5) (L.monomial ~coeff:1. ~degree:2)

(* Commodities: the DAG's source–sink pair, then up to two more pairs,
   each with at least one and at most 1000 simple paths; each keeps a
   random non-empty subset of its paths, in random order. *)
let draw_path_sets r graph st =
  let n = Digraph.node_count graph in
  let paths_of (s, t) =
    if s = t then [||]
    else
      match Path_enum.all_simple_paths ~max_paths:1000 graph ~src:s ~dst:t with
      | ps -> Array.of_list ps
      | exception Path_enum.Too_many_paths _ -> [||]
  in
  let candidates =
    ((st.Gen.src, st.Gen.dst) :: List.init 6 (fun _ -> (Rng.int r n, Rng.int r n)))
    |> List.map (fun pair -> (pair, paths_of pair))
    |> List.filter (fun (_, ps) -> ps <> [||])
  in
  let keep = 1 + Rng.int r 3 in
  List.filteri (fun i _ -> i < keep) candidates
  |> List.map (fun (pair, ps) ->
         Rng.shuffle r ps;
         (pair, Array.sub ps 0 (1 + Rng.int r (Array.length ps))))

let row offsets values i =
  Array.sub values offsets.(i) (offsets.(i + 1) - offsets.(i))

let prop_extend_chain_matches_of_paths =
  qcheck ~count:300 "qcheck: extend chain = of_paths on the same path set"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let r = Rng.create ~seed () in
      let graph, st = doubled_dag r in
      let latencies =
        Array.init (Digraph.edge_count graph) (fun _ -> latency_of r)
      in
      let sets = Array.of_list (draw_path_sets r graph st) in
      let nc = Array.length sets in
      QCheck2.assume (nc > 0);
      let commodities =
        Array.to_list
          (Array.map
             (fun ((src, dst), _) ->
               Commodity.make ~src ~dst ~demand:(1. /. float_of_int nc))
             sets)
      in
      (* Seed with each commodity's first path; the rest arrive
         interleaved across commodities in steps of 1 to 3 columns. *)
      let seed_inst =
        Instance.of_paths ~graph ~latencies ~commodities
          ~paths:(Array.map (fun (_, ps) -> [ ps.(0) ]) sets)
          ()
      in
      let pending =
        Array.concat
          (Array.to_list
             (Array.mapi
                (fun ci (_, ps) ->
                  Array.map (fun p -> (ci, p))
                    (Array.sub ps 1 (Array.length ps - 1)))
                sets))
      in
      Rng.shuffle r pending;
      let chained = ref seed_inst and i = ref 0 in
      while !i < Array.length pending do
        let k = min (1 + Rng.int r 3) (Array.length pending - !i) in
        chained :=
          Instance.extend !chained
            ~paths:(Array.to_list (Array.sub pending !i k));
        i := !i + k
      done;
      let chained = !chained in
      (* The reference lists each commodity's paths in the order the
         chain admitted them. *)
      let reference =
        Instance.of_paths ~graph ~latencies ~commodities
          ~paths:
            (Array.init nc (fun ci ->
                 Array.to_list
                   (Array.map (Instance.path chained)
                      (Instance.paths_of_commodity chained ci))))
          ()
      in
      (* The two global indices differ only by a relabelling: a path's
         commodity and its position there. *)
      let relabel q =
        (Instance.paths_of_commodity reference
           (Instance.commodity_of_path chained q)).(Instance.local_index_of_path
                                                      chained q)
      in
      let n = Instance.path_count chained in
      let ec = Digraph.edge_count graph in
      let c_off = Instance.csr_offsets chained
      and c_edges = Instance.csr_edges chained in
      let r_off = Instance.csr_offsets reference
      and r_edges = Instance.csr_edges reference in
      let csr_rows_agree =
        List.for_all
          (fun q -> row c_off c_edges q = row r_off r_edges (relabel q))
          (List.init n Fun.id)
      in
      (* From scratch in the chain's own index: edge rows list the
         paths through the edge in ascending index. *)
      let naive_rows =
        Array.init ec (fun e ->
            Array.of_list
              (List.concat_map
                 (fun q ->
                   List.filter_map
                     (fun e' -> if e' = e then Some q else None)
                     (Array.to_list (row c_off c_edges q)))
                 (List.init n Fun.id)))
      in
      let t_rows = Array.init ec (Instance.edge_paths chained) in
      let rt_rows = Array.init ec (Instance.edge_paths reference) in
      let transpose_agrees =
        t_rows = naive_rows
        && List.for_all
             (fun e ->
               let mapped = Array.map relabel t_rows.(e) in
               Array.sort compare mapped;
               mapped = rt_rows.(e))
             (List.init ec Fun.id)
      in
      let used = Instance.used_edges chained in
      let used_agrees =
        used = Instance.used_edges reference
        && used
           = Array.of_list
               (List.filter (fun e -> t_rows.(e) <> [||]) (List.init ec Fun.id))
      in
      (* One commodity: the two indices coincide, so every row is equal
         outright. *)
      let prefix a k = Array.sub a 0 k in
      let single_exact =
        nc > 1
        || prefix c_off (n + 1) = r_off
           && prefix c_edges c_off.(n) = prefix r_edges r_off.(n)
           && t_rows = rt_rows
      in
      csr_rows_agree && c_off.(n) = r_off.(n)
      && transpose_agrees && used_agrees && single_exact
      && Instance.max_path_length chained = Instance.max_path_length reference
      && same_bits (Instance.ell_max chained) (Instance.ell_max reference))

(* --- shared incidence stores: every instance reads its own bits --- *)

(* A single-commodity DAG with more than 60 source–sink paths, and those
   paths in enumeration order. *)
let dag_with_paths () =
  let r = Rng.create ~seed:11 () in
  let st = Gen.layered_skips ~skip_prob:0.2 ~rng:r ~layers:5 ~width:4 ~edge_prob:0.7 in
  let paths =
    Array.of_list
      (Path_enum.all_simple_paths ~max_paths:5000 st.Gen.graph ~src:st.Gen.src
         ~dst:st.Gen.dst)
  in
  check_true "enough paths" (Array.length paths > 60);
  let latencies =
    Array.init (Digraph.edge_count st.Gen.graph) (fun e ->
        L.affine ~slope:(1. +. float_of_int (e mod 3)) ~intercept:0.25)
  in
  let seed =
    Instance.of_paths ~graph:st.Gen.graph ~latencies
      ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
      ~paths:[| [ paths.(0) ] |] ()
  in
  (seed, paths)

(* Every incidence accessor of a single-commodity instance against a
   from-scratch build of its own path set, bit for bit. *)
let same_as_scratch inst =
  let n = Instance.path_count inst in
  let reference =
    Instance.of_paths ~graph:(Instance.graph inst)
      ~latencies:(Instance.latencies inst)
      ~commodities:[ Instance.commodity inst 0 ]
      ~paths:[| List.init n (Instance.path inst) |]
      ()
  in
  let csr i = row (Instance.csr_offsets i) (Instance.csr_edges i) in
  let ec = Digraph.edge_count (Instance.graph inst) in
  List.for_all (fun p -> csr inst p = csr reference p) (List.init n Fun.id)
  && List.for_all
       (fun e -> Instance.edge_paths inst e = Instance.edge_paths reference e)
       (List.init ec Fun.id)
  && Instance.used_edges inst = Instance.used_edges reference
  && Instance.max_path_length inst = Instance.max_path_length reference
  && same_bits (Instance.ell_max inst) (Instance.ell_max reference)

let grow_from inst paths ~from ~upto =
  let chain = ref [ inst ] in
  for k = from to upto - 1 do
    chain := Instance.extend (List.hd !chain) ~paths:[ (0, paths.(k)) ] :: !chain
  done;
  !chain

let test_extend_one_parent_twice () =
  let seed, paths = dag_with_paths () in
  let parent = List.hd (grow_from seed paths ~from:1 ~upto:20) in
  let a = Instance.extend parent ~paths:[ (0, paths.(20)) ] in
  let b = Instance.extend parent ~paths:[ (0, paths.(21)); (0, paths.(22)) ] in
  let a' = Instance.extend a ~paths:[ (0, paths.(23)) ] in
  let b' = Instance.extend b ~paths:[ (0, paths.(24)) ] in
  check_true "the first extension appends in place" (Instance.shares_store parent a);
  check_false "the second one copies" (Instance.shares_store parent b);
  check_true "the copy is a chain of its own" (Instance.shares_store b b');
  check_true "both lines keep growing in place" (Instance.shares_store a a');
  List.iter
    (fun (name, i) -> check_true (name ^ " = from-scratch build") (same_as_scratch i))
    [ ("parent", parent); ("first", a); ("second", b); ("first, grown", a');
      ("second, grown", b') ]

let test_replay_from_grown_seed () =
  let seed, paths = dag_with_paths () in
  let chain = grow_from seed paths ~from:1 ~upto:40 in
  check_true "the run grew in place"
    (List.for_all (Instance.shares_store seed) chain);
  let replay =
    Instance.extend seed
      ~paths:(List.init 39 (fun k -> (0, paths.(k + 1))))
  in
  check_false "a replay from the grown seed copies" (Instance.shares_store seed replay);
  check_true "the replay = from-scratch build" (same_as_scratch replay);
  check_true "so does every instance of the run, the seed included"
    (List.for_all same_as_scratch chain)

let test_concurrent_extensions () =
  let seed, paths = dag_with_paths () in
  Staleroute_util.Pool.with_pool ~domains:2 (fun pool ->
      for round = 0 to 29 do
        (* A new chain each round: its newest instance is the parent. *)
        let parent = List.hd (grow_from seed paths ~from:1 ~upto:(2 + (round mod 9))) in
        let extend k =
          Instance.extend parent ~paths:[ (0, paths.(40 + (round mod 10) + k)) ]
        in
        let grown = Staleroute_util.Pool.parallel_map ~pool extend [| 0; 10 |] in
        let in_place =
          Array.fold_left
            (fun n i -> if Instance.shares_store parent i then n + 1 else n)
            0 grown
        in
        check_int "exactly one extension appends in place" 1 in_place;
        Array.iter
          (fun i -> check_true "each = from-scratch build" (same_as_scratch i))
          grown;
        check_true "the parent still reads its own bits" (same_as_scratch parent)
      done)

let suite =
  [
    case "commodity validation" test_commodity_validation;
    case "non-finite latency rejected" test_non_finite_latency_rejected;
    case "braess structure" test_braess_structure;
    case "path/commodity maps" test_path_commodity_maps;
    case "demand normalisation" test_demand_normalisation_enforced;
    case "multicommodity" test_multicommodity;
    case "latency arity" test_latency_array_length_checked;
    case "no-path rejection" test_no_path_rejected;
    case "path cap" test_path_cap_respected;
    case "path cap boundary" test_path_cap_boundary;
    case "extend appends columns" test_extend_appends_columns;
    case "accessor bounds" test_accessor_bounds;
    case "local index table" test_local_index_inverts_paths_of_commodity;
    case "csr incidence" test_csr_incidence_matches_path_edges;
    case "needle constants" test_needle_constants;
    prop_extend_chain_matches_of_paths;
    case "extend one parent twice" test_extend_one_parent_twice;
    case "replay from a grown seed" test_replay_from_grown_seed;
    case "extend from two domains at once" test_concurrent_extensions;
  ]
