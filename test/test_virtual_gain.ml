open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Gen = Staleroute_graph.Gen
module Digraph = Staleroute_graph.Digraph
module Latency = Staleroute_latency.Latency
module Rng = Staleroute_util.Rng
module Vec = Staleroute_util.Vec

let test_virtual_gain_formula_two_link () =
  (* V = sum_e l_e(fhat) (f_e - fhat_e) on two linear links. *)
  let inst = Common.two_link ~beta:1. in
  (* l(x) = max(0, x - 1/2); fhat = (0.75, 0.25) -> l = (0.25, 0). *)
  let fhat = vec [| 0.75; 0.25 |] and f = vec [| 0.5; 0.5 |] in
  check_close "virtual gain" (0.25 *. (0.5 -. 0.75))
    (Virtual_gain.virtual_gain inst ~phase_start:fhat ~phase_end:f)

let test_zero_when_no_movement () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  check_close "V(f, f) = 0" 0.
    (Virtual_gain.virtual_gain inst ~phase_start:f ~phase_end:f);
  check_close "U(f, f) = 0" 0.
    (Virtual_gain.error_terms inst ~phase_start:f ~phase_end:f)

let lemma3_check inst fhat f =
  let v = Virtual_gain.virtual_gain inst ~phase_start:fhat ~phase_end:f in
  let u = Virtual_gain.error_terms inst ~phase_start:fhat ~phase_end:f in
  let dphi = Virtual_gain.true_gain inst ~phase_start:fhat ~phase_end:f in
  check_close ~eps:1e-10 "Lemma 3: dPhi = U + V" dphi (u +. v)

let test_lemma3_identity_handpicked () =
  let inst = Common.braess () in
  lemma3_check inst (Flow.uniform inst) (vec [| 0.1; 0.8; 0.1 |]);
  lemma3_check inst (vec [| 1.; 0.; 0. |]) (vec [| 0.; 0.; 1. |]);
  lemma3_check inst (vec [| 0.2; 0.3; 0.5 |]) (vec [| 0.5; 0.3; 0.2 |])

let test_error_terms_nonnegative_for_monotone_latencies () =
  (* U_e = int (l(u) - l(fhat_e)) du over [fhat_e, f_e]: for
     non-decreasing l each term is >= 0 regardless of direction. *)
  let inst = Common.parallel 5 in
  let r = rng () in
  for _ = 1 to 30 do
    let a = Flow.random inst r and b = Flow.random inst r in
    check_true "U >= 0"
      (Virtual_gain.error_terms inst ~phase_start:a ~phase_end:b >= -1e-12)
  done

let prop_lemma3_random =
  qcheck ~count:100 "qcheck: Lemma 3 on random flow pairs (grid)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let inst = Common.grid33 () in
      let r = Staleroute_util.Rng.create ~seed () in
      let a = Flow.random inst r and b = Flow.random inst r in
      let v = Virtual_gain.virtual_gain inst ~phase_start:a ~phase_end:b in
      let u = Virtual_gain.error_terms inst ~phase_start:a ~phase_end:b in
      let dphi = Virtual_gain.true_gain inst ~phase_start:a ~phase_end:b in
      Float.abs (dphi -. (u +. v)) < 1e-9)

let prop_gain_antisymmetry_of_potential =
  qcheck ~count:50 "qcheck: true gain is antisymmetric"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let inst = Common.parallel 4 in
      let r = Staleroute_util.Rng.create ~seed () in
      let a = Flow.random inst r and b = Flow.random inst r in
      Float.abs
        (Virtual_gain.true_gain inst ~phase_start:a ~phase_end:b
        +. Virtual_gain.true_gain inst ~phase_start:b ~phase_end:a)
      < 1e-10)

(* --- The fused phase accounting (Driver.run) --- *)

(* The all-edge sums from before the edge rule, copied here as the
   bitwise oracle. *)
let all_edge_phi inst f =
  let fe = Flow.edge_flows inst f in
  let acc = ref 0. in
  Array.iteri
    (fun e load ->
      acc := !acc +. Latency.integral (Instance.latency inst e) load)
    fe;
  !acc

let all_edge_virtual_gain inst ~phase_start ~phase_end =
  let fe_hat = Flow.edge_flows inst phase_start in
  let fe = Flow.edge_flows inst phase_end in
  let ell_hat = Flow.edge_latencies inst fe_hat in
  let acc = ref 0. in
  Array.iteri (fun e l -> acc := !acc +. (l *. (fe.(e) -. fe_hat.(e)))) ell_hat;
  !acc

let mixed_latency r =
  match Rng.int r 5 with
  | 0 -> Latency.affine ~slope:(Rng.float r 2.) ~intercept:(Rng.float r 0.3)
  | 1 -> Latency.mm1 ~capacity:(1.5 +. Rng.float r 3.)
  | 2 -> Latency.relu ~slope:(Rng.float r 3.) ~knee:(Rng.float r 1.)
  | 3 -> Latency.poly [| Rng.float r 0.2; Rng.float r 1.; Rng.float r 1. |]
  | _ ->
      Latency.shift (Rng.float r 0.5)
        (Latency.monomial ~coeff:(Rng.float r 2.) ~degree:(1 + Rng.int r 3))

(* A layered DAG with mixed latency families under a column-generation
   pool: [Full] enumerates every path, [Shortest] starts from one
   column, and [grow] prices one random posting. *)
let accounting_pool ~seed_mode seed =
  let r = Rng.create ~seed () in
  let st =
    Gen.layered_skips ~skip_prob:0.2 ~rng:r ~layers:3 ~width:3 ~edge_prob:0.6
  in
  let latencies =
    Array.init (Digraph.edge_count st.Gen.graph) (fun _ -> mixed_latency r)
  in
  let pool =
    Path_pool.create ~seed:seed_mode ~graph:st.Gen.graph ~latencies
      ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
      ()
  in
  let grow inst =
    let edge_latencies =
      Array.map (fun l -> Latency.eval l (Rng.float r 1.)) latencies
    in
    match Path_pool.grow pool inst ~edge_latencies with
    | Some (inst', _) -> inst'
    | None -> inst
  in
  (r, Path_pool.instance pool, grow)

(* A feasible flow with about half of its paths at exactly zero. *)
let sparse_flow inst r =
  let f = Flow.random inst r in
  for ci = 0 to Instance.commodity_count inst - 1 do
    Array.iteri
      (fun j p -> if j > 0 && Rng.bool r then Vec.set f p 0.)
      (Instance.paths_of_commodity inst ci)
  done;
  Flow.project inst f

(* A run's phase chain: the ledger is opened on the seed instance, the
   instance grows between phases and each start flow is the previous
   end, zero-extended — as in Driver.run. *)
let ledger_matches_all_edge_sums ~seed_mode seed =
  let r, inst0, grow = accounting_pool ~seed_mode seed in
  let f0 = sparse_flow inst0 r in
  let ledger = Virtual_gain.ledger inst0 f0 in
  let ok = ref true in
  let inst = ref inst0 and start = ref f0 in
  for _ = 1 to 4 do
    inst := grow (grow !inst);
    let inst = !inst in
    let phase_start = Vec.extend !start ~dim:(Instance.path_count inst) in
    let phase_end = sparse_flow inst r in
    let phi, v = Virtual_gain.close_phase ledger inst phase_end in
    ok :=
      !ok
      && same_bits phi (all_edge_phi inst phase_end)
      && same_bits phi (Potential.phi inst phase_end)
      && same_bits v (all_edge_virtual_gain inst ~phase_start ~phase_end)
      && same_bits v (Virtual_gain.virtual_gain inst ~phase_start ~phase_end);
    start := phase_end
  done;
  (!ok, !inst)

let prop_ledger_bitwise =
  qcheck ~count:150 "qcheck: fused Φ/V = all-edge sums, bit for bit"
    QCheck2.Gen.(pair (int_range 0 1_000_000) bool)
    (fun (seed, full) ->
      fst
        (ledger_matches_all_edge_sums
           ~seed_mode:(if full then Path_pool.Full else Path_pool.Shortest)
           seed))

let test_ledger_skips_unused_edges () =
  (* A grown pool that still leaves edges unused: the case the edge
     rule exists for. *)
  let ok, inst = ledger_matches_all_edge_sums ~seed_mode:Path_pool.Shortest 7 in
  check_true "fused = all-edge sums" ok;
  let used = Instance.edge_csr_offsets inst in
  let unused = ref 0 in
  for e = 0 to Array.length used - 2 do
    if used.(e) = used.(e + 1) then incr unused
  done;
  check_true "some edges carry no path" (!unused > 0)

(* Minor words per call of [close_phase] and of a fully dirty
   [Bulletin_board.repost] on [m] affine parallel links, where every
   edge is used.  Arrays of more than 256 words are allocated on the
   major heap, so at both sizes below only per-edge boxing could make
   the count grow with [m]. *)
let words_per_call m =
  let inst = Common.parallel m in
  let f = Flow.uniform inst in
  let g = Vec.init m (fun p -> if p mod 2 = 0 then 2. /. float_of_int m else 0.) in
  let flow i = if i mod 2 = 0 then f else g in
  let calls = 40 in
  let measure step =
    step 0;
    let before = Gc.minor_words () in
    for i = 1 to calls do
      step i
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let l = Virtual_gain.ledger inst f in
  let close =
    measure (fun i -> ignore (Sys.opaque_identity (Virtual_gain.close_phase l inst (flow i))))
  in
  let delta = Bulletin_board.delta () in
  let board = ref (Bulletin_board.post inst ~time:0. f) in
  let repost =
    measure (fun i ->
        board := Bulletin_board.repost ~delta inst ~prev:!board ~time:0. (flow i);
        if i > 0 && Bulletin_board.dirty_paths delta <> m then
          Alcotest.fail "repost is not fully dirty")
  in
  (close, repost)

let test_accounting_words_flat_in_used_edges () =
  let close_small, repost_small = words_per_call 300 in
  let close_big, repost_big = words_per_call 1200 in
  check_true
    (Printf.sprintf "close_phase %.1f words at 300 edges, %.1f at 1200"
       close_small close_big)
    (close_big <= close_small);
  check_true
    (Printf.sprintf "repost %.1f words at 300 edges, %.1f at 1200"
       repost_small repost_big)
    (repost_big <= repost_small)

let suite =
  [
    case "virtual gain formula" test_virtual_gain_formula_two_link;
    case "zero at rest" test_zero_when_no_movement;
    case "Lemma 3 identity (hand-picked)" test_lemma3_identity_handpicked;
    case "error terms nonnegative" test_error_terms_nonnegative_for_monotone_latencies;
    prop_lemma3_random;
    prop_gain_antisymmetry_of_potential;
    prop_ledger_bitwise;
    case "ledger on a grown pool with unused edges"
      test_ledger_skips_unused_edges;
    case "accounting and repost words flat in used edges"
      test_accounting_words_flat_in_used_edges;
  ]
