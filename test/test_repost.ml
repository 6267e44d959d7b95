open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Vec = Staleroute_util.Vec
module Rng = Staleroute_util.Rng
module Latency = Staleroute_latency.Latency
module Gen = Staleroute_graph.Gen

let instances () =
  [
    Common.two_link ~beta:4.;
    Common.braess ();
    Common.parallel 5;
    Common.grid33 ();
    Common.two_commodity ();
  ]

let samplings = [ Sampling.Uniform; Sampling.Proportional; Sampling.Logit 3. ]

let bits = Int64.bits_of_float

let arr_bits_equal x y =
  Array.length x = Array.length y
  && Array.for_all2 (fun u v -> bits u = bits v) x y

(* Every field that determines behaviour — everything except the
   process-wide revision ordinal. *)
let board_fields_equal (a : Bulletin_board.t) (b : Bulletin_board.t) =
  bits a.Bulletin_board.posted_at = bits b.Bulletin_board.posted_at
  && arr_bits_equal
       (Vec.to_array a.Bulletin_board.flow)
       (Vec.to_array b.Bulletin_board.flow)
  && arr_bits_equal a.Bulletin_board.path_latencies
       b.Bulletin_board.path_latencies
  && arr_bits_equal a.Bulletin_board.edge_latencies
       b.Bulletin_board.edge_latencies
  && a.Bulletin_board.clean = b.Bulletin_board.clean

(* Every field of [b] against the independent reference board of
   [flow] (or of the supplied latencies) in [Helpers], bit for bit, and
   [clean] exactly when nothing was supplied. *)
let matches_reference ?edge_latencies inst (b : Bulletin_board.t) ~time flow =
  let el, pl = reference_board ?edge_latencies inst flow in
  bits b.Bulletin_board.posted_at = bits time
  && arr_bits_equal (Vec.to_array b.Bulletin_board.flow) (Vec.to_array flow)
  && arr_bits_equal b.Bulletin_board.edge_latencies el
  && arr_bits_equal b.Bulletin_board.path_latencies pl
  && b.Bulletin_board.clean = Option.is_none edge_latencies

let kernels_bitwise_equal inst a b flow =
  let n = Instance.path_count inst in
  let ok = ref true in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if
        bits (Rate_kernel.rate a ~from_:p q)
        <> bits (Rate_kernel.rate b ~from_:p q)
      then ok := false
    done
  done;
  !ok
  && arr_bits_equal
       (Vec.to_array (Rate_kernel.flow_derivative a flow))
       (Vec.to_array (Rate_kernel.flow_derivative b flow))

(* The changed-path set must be exact: a path is listed iff its posted
   flow or posted latency moved bits, and the list is ascending. *)
let changed_set_exact (prev : Bulletin_board.t) (board : Bulletin_board.t)
    delta =
  let chg = Bulletin_board.changed_paths delta in
  let count = Bulletin_board.changed_count delta in
  let n = Array.length board.Bulletin_board.path_latencies in
  let listed = Array.make n false in
  let ascending = ref true in
  for i = 0 to count - 1 do
    if i > 0 && chg.(i - 1) >= chg.(i) then ascending := false;
    listed.(chg.(i)) <- true
  done;
  !ascending
  &&
  let ok = ref true in
  for p = 0 to n - 1 do
    let moved =
      bits (Vec.get prev.Bulletin_board.flow p)
      <> bits (Vec.get board.Bulletin_board.flow p)
      || bits prev.Bulletin_board.path_latencies.(p)
         <> bits board.Bulletin_board.path_latencies.(p)
    in
    if moved <> listed.(p) then ok := false
  done;
  !ok

(* A sparse perturbation: move a random amount of one commodity's mass
   between two of its paths.  Feasible by construction, and every other
   path entry keeps its exact bits — the workload the dirty-edge
   machinery exists for. *)
let transfer inst r flow =
  let ci = Rng.int r (Instance.commodity_count inst) in
  let ps = Instance.paths_of_commodity inst ci in
  let i = ps.(Rng.int r (Array.length ps)) in
  let j = ps.(Rng.int r (Array.length ps)) in
  if i = j then Vec.copy flow
  else begin
    let g = Vec.copy flow in
    let d = Rng.float r (Vec.get g i) in
    Vec.set g i (Vec.get g i -. d);
    Vec.set g j (Vec.get g j +. d);
    g
  end

(* A chain of delta reposts — alternating sparse transfers and dense
   re-randomizations — produces boards bitwise identical to the
   reference board of each flow, and the changed sets it extracts drive
   [Rate_kernel.update ?changed] to kernels bitwise identical to fresh
   builds. *)
let prop_repost_matches_post =
  qcheck ~count:40 "qcheck: chained repost = fresh post (bitwise)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let r = Rng.create ~seed () in
      let insts = instances () in
      let inst = List.nth insts (Rng.int r (List.length insts)) in
      let delta = Bulletin_board.delta () in
      List.for_all
        (fun sampling ->
          let policy =
            Policy.make ~sampling
              ~migration:
                (Migration.Linear
                   { ell_max = Float.max 1. (Instance.ell_max inst) })
          in
          let f0 = Flow.random inst r in
          let prev = ref (Bulletin_board.post inst ~time:0. f0) in
          let k = ref (Rate_kernel.build inst policy ~board:!prev) in
          let ok = ref (matches_reference inst !prev ~time:0. f0) in
          for i = 1 to 6 do
            let flow =
              if i mod 2 = 1 then
                transfer inst r !prev.Bulletin_board.flow
              else Flow.random inst r
            in
            let time = float_of_int i in
            let board = Bulletin_board.repost ~delta inst ~prev:!prev ~time flow in
            if not (matches_reference inst board ~time flow) then ok := false;
            if not (changed_set_exact !prev board delta) then ok := false;
            let changed =
              ( Bulletin_board.changed_paths delta,
                Bulletin_board.changed_count delta )
            in
            k := Rate_kernel.update ~changed !k ~board;
            if
              not
                (Rate_kernel.is_current !k ~board
                && kernels_bitwise_equal inst !k
                     (Rate_kernel.build inst policy ~board)
                     (Flow.random inst r))
            then ok := false;
            prev := board
          done;
          !ok)
        samplings)

(* The faulted twin: chains through [Faults.board] (Partial mixes stale
   and fresh latencies, Noise perturbs them — both land as unclean
   boards through [repost ~edge_latencies]; a clean landing goes
   through plain [repost];
   a Drop leaves the old board and kernel in place).  Every landed
   board must be bitwise the reference board of its flow (clean) or of
   its supplied latencies (unclean), and the changed sets must keep
   the update chain bitwise equal to fresh builds. *)
let prop_faulted_repost_matches_fresh =
  qcheck ~count:30 "qcheck: faulted repost chain = fresh constructors"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let r = Rng.create ~seed () in
      let insts = instances () in
      let inst = List.nth insts (Rng.int r (List.length insts)) in
      let faults =
        Faults.plan
          (Faults.make ~drop:0.2 ~partial:0.25 ~partial_fraction:0.4
             ~noise:0.25 ~noise_sigma:0.3
             ~seed:(Rng.int r 1_000_000) ())
      in
      let policy = Policy.uniform_linear inst in
      let delta = Bulletin_board.delta () in
      let prev = ref (Bulletin_board.post inst ~time:0. (Flow.random inst r)) in
      let k = ref (Rate_kernel.build inst policy ~board:!prev) in
      let ok = ref true in
      for i = 1 to 6 do
        let flow =
          if i mod 2 = 1 then transfer inst r !prev.Bulletin_board.flow
          else Flow.random inst r
        in
        let time = float_of_int i in
        match Faults.fault_at faults ~index:i with
        | Some Faults.Drop -> () (* old board and kernel survive *)
        | fault ->
            let board =
              Faults.board ~delta faults ~index:i fault inst ~time
                ~prev:(Some !prev) flow
            in
            let edge_latencies =
              if board.Bulletin_board.clean then None
              else Some board.Bulletin_board.edge_latencies
            in
            if not (matches_reference ?edge_latencies inst board ~time flow)
            then ok := false;
            if not (changed_set_exact !prev board delta) then ok := false;
            let changed =
              ( Bulletin_board.changed_paths delta,
                Bulletin_board.changed_count delta )
            in
            k := Rate_kernel.update ~changed !k ~board;
            if
              not
                (kernels_bitwise_equal inst !k
                   (Rate_kernel.build inst policy ~board)
                   (Flow.random inst r))
            then ok := false;
            prev := board
      done;
      !ok)

(* The growth path: [repost_grown] over an [Instance.extend]ed index
   must post the reference path latencies of the previous board's
   edge latencies over the grown index, share the
   previous board's edge-latency array physically (boards are
   immutable), and keep the subsequent repost chain exact. *)
let prop_repost_grown_matches_post =
  qcheck ~count:25
    "qcheck: repost_grown = post ~edge_latencies over grown index"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (seed, lseed) ->
      let r = Rng.create ~seed () in
      let st =
        Gen.layered_skips ~skip_prob:0.2 ~rng:r ~layers:3 ~width:3
          ~edge_prob:0.6
      in
      let graph = st.Gen.graph in
      let m = Staleroute_graph.Digraph.edge_count graph in
      let latencies =
        Array.init m (fun _ ->
            Latency.affine
              ~slope:(0.25 +. Rng.float r 1.5)
              ~intercept:(Rng.float r 0.3))
      in
      let commodities =
        [ Commodity.make ~src:st.Gen.src ~dst:st.Gen.dst ~demand:1. ]
      in
      let pool = Path_pool.create ~graph ~latencies ~commodities () in
      let inst = Path_pool.instance pool in
      let lr = Rng.create ~seed:lseed () in
      let posted =
        Array.map (fun l -> Latency.eval l (Rng.float lr 1.)) latencies
      in
      match Path_pool.grow pool inst ~edge_latencies:posted with
      | None -> true
      | Some (inst', _) ->
          let flow = Flow.random inst lr in
          let board = Bulletin_board.post inst ~time:0.25 flow in
          let n' = Instance.path_count inst' in
          let grown = Bulletin_board.repost_grown inst' ~prev:board in
          let extended = Vec.extend board.Bulletin_board.flow ~dim:n' in
          let _, reference =
            reference_board ~edge_latencies:board.Bulletin_board.edge_latencies
              inst' extended
          in
          (* A grown clean board stays clean (nothing about the
             latencies changed): pin the flag against the previous
             board. *)
          bits grown.Bulletin_board.posted_at
          = bits board.Bulletin_board.posted_at
          && arr_bits_equal
               (Vec.to_array grown.Bulletin_board.flow)
               (Vec.to_array extended)
          && arr_bits_equal grown.Bulletin_board.path_latencies reference
          && grown.Bulletin_board.edge_latencies
             == board.Bulletin_board.edge_latencies
          && grown.Bulletin_board.clean = board.Bulletin_board.clean
          &&
          (* and the chain stays exact after growth *)
          let delta = Bulletin_board.delta () in
          let flow' = transfer inst' lr grown.Bulletin_board.flow in
          let next =
            Bulletin_board.repost ~delta inst' ~prev:grown ~time:0.5 flow'
          in
          matches_reference inst' next ~time:0.5 flow'
          && changed_set_exact grown next delta)

(* The transposed incidence is the exact inverse image of the forward
   CSR, with each edge's row in ascending path order — the invariant
   the sparse gather's bitwise identity rides on. *)
let test_transpose_consistency () =
  List.iter
    (fun inst ->
      let off = Instance.csr_offsets inst in
      let edges = Instance.csr_edges inst in
      let toff = Instance.edge_csr_offsets inst in
      let tpaths = Instance.edge_csr_paths inst in
      let n = Instance.path_count inst in
      let ec = Array.length toff - 1 in
      check_int "transpose nnz" off.(n) toff.(ec);
      (* forward membership = transpose membership *)
      let member = Hashtbl.create 64 in
      for p = 0 to n - 1 do
        for k = off.(p) to off.(p + 1) - 1 do
          Hashtbl.replace member (edges.(k), p) ()
        done
      done;
      for e = 0 to ec - 1 do
        let prev = ref (-1) in
        for k = toff.(e) to toff.(e + 1) - 1 do
          let p = tpaths.(k) in
          check_true "transpose row ascending" (p > !prev);
          prev := p;
          check_true "transpose pair exists forward"
            (Hashtbl.mem member (e, p));
          Hashtbl.remove member (e, p)
        done
      done;
      check_int "all forward pairs covered" 0 (Hashtbl.length member))
    (instances ())

let test_restore_cleanliness () =
  let inst = Common.braess () in
  let f = Flow.random inst (rng ()) in
  let posted = Bulletin_board.post inst ~time:1.5 f in
  let restored =
    Bulletin_board.restore inst ~time:1.5 ~flow:f
      ~edge_latencies:posted.Bulletin_board.edge_latencies
  in
  check_true "restored induced latencies are clean"
    restored.Bulletin_board.clean;
  check_true "restore = original board fields"
    (board_fields_equal posted restored);
  let perturbed =
    Array.map (fun l -> l *. 1.01) posted.Bulletin_board.edge_latencies
  in
  let unclean =
    Bulletin_board.restore inst ~time:1.5 ~flow:f ~edge_latencies:perturbed
  in
  check_false "restored foreign latencies are unclean"
    unclean.Bulletin_board.clean

let test_unclean_prev_recomputes_in_full () =
  (* From an unclean previous board the sparse gather is unsound (its
     latencies are not the ones its flow induces); repost must dirty
     every edge — and still post the reference board. *)
  let inst = Common.grid33 () in
  let r = rng () in
  let f = Flow.random inst r in
  let noisy =
    Array.map
      (fun l -> l *. 1.1)
      (Flow.edge_latencies inst (Flow.edge_flows inst f))
  in
  let prev = Bulletin_board.post ~edge_latencies:noisy inst ~time:0. f in
  check_false "supplied latencies are unclean" prev.Bulletin_board.clean;
  let delta = Bulletin_board.delta () in
  let g = transfer inst r f in
  let board = Bulletin_board.repost ~delta inst ~prev ~time:1. g in
  check_true "repost from unclean prev = reference board"
    (matches_reference inst board ~time:1. g);
  check_int "unclean prev dirties every edge"
    (Array.length board.Bulletin_board.edge_latencies)
    (Bulletin_board.dirty_edges delta);
  check_int "unclean prev dirties every path" (Instance.path_count inst)
    (Bulletin_board.dirty_paths delta)

let test_sparse_dirty_counts () =
  (* On parallel links a two-path transfer touches exactly two edges
     and two paths, independent of how many links the instance has —
     the per-post work scales with the delta, not the network. *)
  let inst = Common.parallel 50 in
  let f = Flow.uniform inst in
  let prev = Bulletin_board.post inst ~time:0. f in
  let g = Vec.copy f in
  Vec.set g 0 (Vec.get g 0 -. 0.005);
  Vec.set g 1 (Vec.get g 1 +. 0.005);
  let delta = Bulletin_board.delta () in
  let board = Bulletin_board.repost ~delta inst ~prev ~time:1. g in
  check_int "two dirty edges" 2 (Bulletin_board.dirty_edges delta);
  check_int "two dirty paths" 2 (Bulletin_board.dirty_paths delta);
  check_int "two changed paths" 2 (Bulletin_board.changed_count delta);
  check_true "still the reference board"
    (matches_reference inst board ~time:1. g);
  (* An identical re-post is an empty delta. *)
  let again = Bulletin_board.repost ~delta inst ~prev:board ~time:2. g in
  check_int "no dirty edges on identical flow" 0
    (Bulletin_board.dirty_edges delta);
  check_int "no changed paths on identical flow" 0
    (Bulletin_board.changed_count delta);
  check_true "identical re-post still the reference board"
    (matches_reference inst again ~time:2. g);
  (* Two commodities over 200 shared links: still two edges. *)
  let big = multicommodity_parallel 200 in
  let f = Flow.uniform big in
  let prev = Bulletin_board.post big ~time:0. f in
  let g = Vec.copy f in
  Vec.set g 0 (Vec.get g 0 -. 0.002);
  Vec.set g 1 (Vec.get g 1 +. 0.002);
  ignore (Bulletin_board.repost ~delta big ~prev ~time:1. g);
  check_int "two dirty edges of 200" 2 (Bulletin_board.dirty_edges delta)

(* Steady-state repost cost on [multicommodity_parallel 20] (20 edges,
   40 paths): with a persistent delta scratch a repost allocates only
   the new board (flow copy, edge and path latencies, the record) and
   nothing per dirty entry.  82 words is what that board costs. *)
let test_repost_allocation_bounded () =
  match Sys.backend_type with
  | Sys.Native ->
      let inst = multicommodity_parallel 20 in
      let f = Flow.uniform inst in
      let g = Vec.copy f in
      Vec.set g 0 (Vec.get g 0 -. 0.004);
      Vec.set g 1 (Vec.get g 1 +. 0.004);
      let delta = Bulletin_board.delta () in
      let prev = ref (Bulletin_board.post inst ~time:0. f) in
      let flip = ref false in
      let words =
        words_per_call (fun () ->
            flip := not !flip;
            prev :=
              Bulletin_board.repost ~delta inst ~prev:!prev ~time:0.
                (if !flip then g else f))
      in
      check_true
        (Printf.sprintf "repost: %.1f minor words <= 82" words)
        (words <= 82.)
  | _ -> ()

let test_delta_resizes_across_instances () =
  let delta = Bulletin_board.delta () in
  List.iter
    (fun inst ->
      let r = rng () in
      let f = Flow.random inst r in
      let prev = Bulletin_board.post inst ~time:0. f in
      let g = transfer inst r f in
      let board = Bulletin_board.repost ~delta inst ~prev ~time:1. g in
      check_true "reused scratch stays exact"
        (matches_reference inst board ~time:1. g))
    (instances () @ List.rev (instances ()))

let test_repost_validation () =
  let inst = Common.braess () in
  let other = Common.parallel 5 in
  let f = Flow.uniform inst in
  let prev = Bulletin_board.post inst ~time:0. f in
  check_raises_invalid "flow dimension mismatch" (fun () ->
      ignore (Bulletin_board.repost inst ~prev ~time:1. (Flow.uniform other)));
  check_raises_invalid "prev from another instance" (fun () ->
      ignore
        (Bulletin_board.repost other
           ~prev:(Bulletin_board.post inst ~time:0. f)
           ~time:1. (Flow.uniform other)));
  check_raises_invalid "supplied latencies arity mismatch (repost)"
    (fun () ->
      ignore
        (Bulletin_board.repost ~edge_latencies:[| 1.; 2. |] inst ~prev
           ~time:1. f));
  check_raises_invalid "supplied latencies arity mismatch (post)" (fun () ->
      ignore
        (Bulletin_board.post ~edge_latencies:[| 1.; 2. |] inst ~time:1. f))

let suite =
  [
    prop_repost_matches_post;
    prop_faulted_repost_matches_fresh;
    prop_repost_grown_matches_post;
    case "transposed incidence is exact" test_transpose_consistency;
    case "restore re-derives cleanliness" test_restore_cleanliness;
    case "unclean prev falls back to full recompute"
      test_unclean_prev_recomputes_in_full;
    case "sparse dirty counts scale with the delta" test_sparse_dirty_counts;
    case "steady-state repost allocation bounded"
      test_repost_allocation_bounded;
    case "delta scratch resizes across instances"
      test_delta_resizes_across_instances;
    case "validation" test_repost_validation;
  ]
