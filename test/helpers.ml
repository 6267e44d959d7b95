(* Shared helpers for the test suite. *)

let close ?(eps = 1e-9) () = Alcotest.float eps

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.check (close ~eps ()) msg expected actual

(* Float equality bit for bit: tells -0. from 0. and equates a NaN with
   itself. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_true msg b = Alcotest.check Alcotest.bool msg true b
let check_false msg b = Alcotest.check Alcotest.bool msg false b
let check_int msg = Alcotest.check Alcotest.int msg

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* A deterministic RNG for tests that need randomness. *)
let rng ?(seed = 12345) () = Staleroute_util.Rng.create ~seed ()

(* Flow/vector literals for tests: a [Vec.t] from a float-array literal. *)
let vec = Staleroute_util.Vec.of_array

(* Re-create [g] with about a quarter of its edges doubled and all edge
   ids shuffled: parallel edges, and slot order unrelated to layers. *)
let with_parallel_edges r g =
  let module D = Staleroute_graph.Digraph in
  let module Rng = Staleroute_util.Rng in
  let edges =
    Array.to_list (Array.map (fun e -> (e.D.src, e.D.dst)) (D.edges g))
  in
  let doubled = List.filter (fun _ -> Rng.int r 4 = 0) edges in
  let all = Array.of_list (edges @ doubled) in
  Rng.shuffle r all;
  D.create ~nodes:(D.node_count g) ~edges:(Array.to_list all)

(* Minor words per call of [f], measured by differencing two batch
   sizes so per-measurement setup (including the boxed float
   [Gc.minor_words] itself returns) cancels out.  Only meaningful under
   the native compiler: bytecode boxes every float temporary. *)
let words_per_call f =
  let measure n =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    Gc.minor_words () -. before
  in
  (measure 1001 -. measure 1) /. 1000.

(* Two commodities splitting the unit demand over the same [m] affine
   parallel links: [2 * m] paths, link [j] with slope [1 + j mod 3] and
   intercept [0.3 j / m]. *)
let multicommodity_parallel m =
  let open Staleroute_wardrop in
  let st = Staleroute_graph.Gen.parallel_links m in
  let latencies =
    Array.init m (fun j ->
        Staleroute_latency.Latency.affine
          ~slope:(float_of_int (1 + (j mod 3)))
          ~intercept:(0.3 *. float_of_int j /. float_of_int m))
  in
  Instance.create ~graph:st.Staleroute_graph.Gen.graph ~latencies
    ~commodities:
      (List.init 2 (fun _ ->
           Commodity.make ~src:st.Staleroute_graph.Gen.src
             ~dst:st.Staleroute_graph.Gen.dst ~demand:0.5))
    ()

(* An independent reference for what a board posts, sharing no loop
   with [Flow] or [Bulletin_board]: edge loads by a forward scatter over
   each path's own edge list (ascending path index, zero flows
   skipped), [Latency.eval] per edge (or the supplied latencies), and
   each path latency summed over its edges from [0.].  The loads are
   the ones [Flow.edge_flows] defines, so a board or a gather that
   matches these arrays bit for bit matches a second implementation. *)
let reference_edge_flows inst f =
  let open Staleroute_wardrop in
  let fe =
    Array.make (Staleroute_graph.Digraph.edge_count (Instance.graph inst)) 0.
  in
  for p = 0 to Instance.path_count inst - 1 do
    let fp = Staleroute_util.Vec.get f p in
    if fp <> 0. then
      Array.iter
        (fun e -> fe.(e) <- fe.(e) +. fp)
        (Staleroute_graph.Path.edge_id_array (Instance.path inst p))
  done;
  fe

(* A board's edge latencies, copied: boards reposted from one another
   share one array, which reading another board of the chain rewrites. *)
let posted_edges b =
  Array.copy (Staleroute_dynamics.Bulletin_board.edge_latencies b)

(* [(edge_latencies, path_latencies)] of the reference board. *)
let reference_board ?edge_latencies inst f =
  let open Staleroute_wardrop in
  let el =
    match edge_latencies with
    | Some el -> Array.copy el
    | None ->
        Array.mapi
          (fun e x -> Staleroute_latency.Latency.eval (Instance.latency inst e) x)
          (reference_edge_flows inst f)
  in
  let pl =
    Array.init (Instance.path_count inst) (fun p ->
        Array.fold_left
          (fun acc e -> acc +. el.(e))
          0.
          (Staleroute_graph.Path.edge_id_array (Instance.path inst p)))
  in
  (el, pl)

(* Synchronous Bertsekas–Tsitsiklis rounds as a [Driver] run: every
   round is one Euler step of h = 1 on the posted board, and the board
   is re-posted every [per_update] rounds (one phase of [per_update]
   steps). *)
let rounds_config ?(per_update = 1) policy ~updates =
  let open Staleroute_dynamics in
  {
    Driver.policy;
    staleness = Driver.Stale (float_of_int per_update);
    phases = updates;
    steps_per_phase = per_update;
    scheme = Integrator.Euler;
  }

(* The same rounds written out by hand, sharing no loop with [Driver],
   [Boundary] or [Integrator]: every [per_update] rounds a board is
   posted over the current flow and its kernel built; every round
   [f <- project_ (f + d(f))].  Returns the flow at every update start,
   then the final flow. *)
let reference_rounds ?(per_update = 1) inst policy ~updates init =
  let open Staleroute_wardrop in
  let open Staleroute_dynamics in
  let module Vec = Staleroute_util.Vec in
  let f = ref (Flow.project inst init) in
  let starts = ref [] in
  let kernel = ref None in
  for k = 0 to (updates * per_update) - 1 do
    if k mod per_update = 0 then begin
      starts := Vec.copy !f :: !starts;
      let board = Bulletin_board.post inst ~time:(float_of_int k) !f in
      kernel := Some (Rate_kernel.build inst policy ~board)
    end;
    let d = Rate_kernel.flow_derivative (Option.get !kernel) !f in
    let g = Vec.copy !f in
    Vec.axpy ~alpha:1. ~x:d ~y:g;
    Flow.project_ inst g;
    f := g
  done;
  Array.of_list (List.rev (!f :: !starts))
