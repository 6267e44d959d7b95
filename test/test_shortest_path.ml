(* The topological pricing pass against Dijkstra: same path (Path.equal),
   same distance bits, Dijkstra's input errors, the tie rule on hand-made
   graphs, and the fallbacks (cyclic graph, exact tie between tails). *)

open Helpers
open Staleroute_graph
module Rng = Staleroute_util.Rng

let same_answer a b =
  match (a, b) with
  | None, None -> true
  | Some (p, c), Some (q, d) -> Path.equal p q && same_bits c d
  | _ -> false

type draw = Random | Ties | Dead

let draw_weights r m = function
  | Random -> Array.init m (fun _ -> Rng.float r 2.)
  | Ties -> Array.init m (fun _ -> [| 0.; 0.25; 0.5; 1. |].(Rng.int r 4))
  | Dead ->
      Array.init m (fun _ ->
          if Rng.int r 5 = 0 then infinity else Rng.float r 2.)

let draw_gen =
  QCheck2.Gen.(
    pair
      (triple (int_range 0 1_000_000) bool (oneofl [ Random; Ties; Dead ]))
      (pair (int_range 2 6) (int_range 2 4)))

let prop_dag_pass_is_dijkstra =
  qcheck ~count:300 "qcheck: DAG pass = Dijkstra (path and bits)" draw_gen
    (fun ((seed, skips, kind), (layers, width)) ->
      let r = Rng.create ~seed () in
      let st =
        Gen.layered_skips
          ~skip_prob:(if skips then 0.3 else 0.)
          ~rng:r ~layers ~width ~edge_prob:0.6
      in
      let g = with_parallel_edges r st.Gen.graph in
      let weights = draw_weights r (Digraph.edge_count g) kind in
      let n = Digraph.node_count g in
      (* The commodity's pair, then arbitrary pairs (unreachable and
         src = dst included). *)
      let pairs =
        (st.Gen.src, st.Gen.dst)
        :: List.init 4 (fun _ -> (Rng.int r n, Rng.int r n))
      in
      List.for_all
        (fun (src, dst) ->
          let reference = Dijkstra.shortest_path g ~weights ~src ~dst in
          let pass = Shortest_path.dag_path g ~weights ~src ~dst in
          (* Continuous weights never tie exactly: the pass decides. *)
          (match (pass, kind) with
          | Shortest_path.Decided found, _ -> same_answer found reference
          | Shortest_path.Tied, Ties -> true
          | (Shortest_path.Tied | Shortest_path.Cyclic), _ -> false)
          && same_answer (Shortest_path.find g ~weights ~src ~dst) reference
          && same_bits
               (Shortest_path.distance g ~weights ~src ~dst)
               (Dijkstra.distance (Dijkstra.run g ~weights ~src) dst))
        pairs)

(* 0 -> {1, 2} -> 3 with total 1 either way. *)
let diamond ~w01 ~w02 ~w13 ~w23 =
  ( Digraph.create ~nodes:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ],
    [| w01; w02; w13; w23 |] )

let decided g ~weights ~src ~dst =
  match Shortest_path.dag_path g ~weights ~src ~dst with
  | Shortest_path.Decided (Some (p, _)) -> Some (Path.edge_ids p)
  | _ -> None

let test_tie_rule () =
  (* Node 2 is relaxed after node 1 but sits closer to the source, so
     Dijkstra settles it first and keeps its edge. *)
  let g, weights = diamond ~w01:0.5 ~w02:0.25 ~w13:0.5 ~w23:0.75 in
  check_true "the closer tail wins"
    (decided g ~weights ~src:0 ~dst:3 = Some [ 1; 3 ]);
  check_true "as in Dijkstra"
    (same_answer
       (Shortest_path.find g ~weights ~src:0 ~dst:3)
       (Dijkstra.shortest_path g ~weights ~src:0 ~dst:3));
  (* Parallel edges from one tail at equal weight: the lower id. *)
  let g = Digraph.create ~nodes:2 ~edges:[ (0, 1); (0, 1); (0, 1) ] in
  let weights = [| 0.5; 0.25; 0.25 |] in
  check_true "same tail: lower edge id"
    (decided g ~weights ~src:0 ~dst:1 = Some [ 1 ])

let test_tied_tails_fall_back () =
  let g, weights = diamond ~w01:0.5 ~w02:0.5 ~w13:0.5 ~w23:0.5 in
  check_true "two tails at one distance: undecided"
    (Shortest_path.dag_path g ~weights ~src:0 ~dst:3 = Shortest_path.Tied);
  check_true "find falls back to Dijkstra"
    (same_answer
       (Shortest_path.find g ~weights ~src:0 ~dst:3)
       (Dijkstra.shortest_path g ~weights ~src:0 ~dst:3));
  check_true "distance needs no tie-break"
    (same_bits 1. (Shortest_path.distance g ~weights ~src:0 ~dst:3));
  (* A tie off the returned path does not matter. *)
  let g =
    Digraph.create ~nodes:5
      ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3); (0, 4) ]
  in
  let weights = [| 0.5; 0.5; 0.5; 0.5; 2. |] in
  check_true "tie elsewhere: decided"
    (decided g ~weights ~src:0 ~dst:4 = Some [ 4 ])

let test_cyclic_graph_uses_dijkstra () =
  let g = Digraph.create ~nodes:3 ~edges:[ (0, 1); (1, 2); (2, 0); (1, 0) ] in
  let weights = [| 1.; 2.; 0.5; 0.25 |] in
  check_true "no acyclic view" (Digraph.dag g = None);
  check_true "pass does not apply"
    (Shortest_path.dag_path g ~weights ~src:0 ~dst:2 = Shortest_path.Cyclic);
  check_true "find = Dijkstra"
    (same_answer
       (Shortest_path.find g ~weights ~src:0 ~dst:2)
       (Dijkstra.shortest_path g ~weights ~src:0 ~dst:2));
  check_true "distance = Dijkstra"
    (same_bits 3. (Shortest_path.distance g ~weights ~src:0 ~dst:2))

let test_input_errors () =
  let g = (Gen.braess ()).Gen.graph in
  let call weights () = Shortest_path.find g ~weights ~src:0 ~dst:3 in
  let dist weights () = Shortest_path.distance g ~weights ~src:0 ~dst:3 in
  check_raises_invalid "negative weight" (call [| 1.; 1.; -1.; 1.; 1. |]);
  check_raises_invalid "negative weight (distance)"
    (dist [| 1.; 1.; -1.; 1.; 1. |]);
  check_raises_invalid "length mismatch" (call [| 1.; 1. |]);
  check_raises_invalid "length mismatch (distance)" (dist [| 1.; 1. |]);
  check_raises_invalid "src out of range" (fun () ->
      Shortest_path.find g ~weights:[| 1.; 1.; 1.; 1.; 1. |] ~src:9 ~dst:3);
  check_raises_invalid "dst out of range" (fun () ->
      Shortest_path.find g ~weights:[| 1.; 1.; 1.; 1.; 1. |] ~src:0 ~dst:9);
  (* A dead edge is accepted and avoided. *)
  match call [| infinity; 1.; 1.; 1.; 0. |] () with
  | Some (p, d) ->
      check_true "dead edge avoided" (Path.edge_ids p = [ 1; 3 ]);
      check_true "finite cost" (same_bits 2. d)
  | None -> Alcotest.fail "reachable around the dead edge"

let suite =
  [
    prop_dag_pass_is_dijkstra;
    case "tie rule" test_tie_rule;
    case "tied tails fall back" test_tied_tails_fall_back;
    case "cyclic graph uses Dijkstra" test_cyclic_graph_uses_dijkstra;
    case "Dijkstra's input errors" test_input_errors;
  ]
