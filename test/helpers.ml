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
