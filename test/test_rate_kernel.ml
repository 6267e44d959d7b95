open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Vec = Staleroute_util.Vec
module Rng = Staleroute_util.Rng
module Latency = Staleroute_latency.Latency
module Gen = Staleroute_graph.Gen

(* An instance where every path latency ties at every flow: migration
   probabilities are exactly 0 throughout. *)
let all_ties m =
  let st = Gen.parallel_links m in
  Instance.create ~graph:st.Gen.graph
    ~latencies:(Array.make m (Latency.const 1.))
    ~commodities:[ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
    ()

let instances () =
  [
    Common.two_link ~beta:4.;
    Common.braess ();
    Common.parallel 5;
    Common.grid33 ();
    Common.two_commodity ();
    all_ties 4;
  ]

(* An origin-dependent rule, to exercise the kernel's general path. *)
let custom_sampling =
  Sampling.Custom
    {
      Sampling.name = "origin-parity";
      prob =
        (fun _ ~commodity:_ ~flow ~latencies ~from_ q ->
          if from_ mod 2 = 0 then
            (1. +. Staleroute_util.Vec.get flow q) /. 10.
          else 1. /. (2. +. latencies.(q)));
    }

let custom_migration =
  Migration.Custom
    {
      Migration.name = "sigmoid";
      prob = (fun ~ell_p ~ell_q -> 1. /. (1. +. exp (ell_q -. ell_p)));
      alpha = None;
    }

let builtin_samplings =
  [ Sampling.Uniform; Sampling.Proportional; Sampling.Logit 3.; Sampling.Mixed 0.25 ]

let builtin_migrations inst =
  [
    Migration.Better_response;
    Migration.Linear { ell_max = Float.max 1. (Instance.ell_max inst) };
    Migration.Scaled_linear { alpha = 0.7 };
    Migration.Relative { scale = 0.5 };
  ]

let samplings = builtin_samplings @ [ custom_sampling ]
let migrations inst = builtin_migrations inst @ [ custom_migration ]

let flows inst r =
  [
    Flow.uniform inst;
    Flow.random inst r;
    (* Boundary point: all mass of each commodity on one path. *)
    Flow.concentrated inst ~on:(fun _ -> 0);
  ]

(* The satellite property: the compiled kernel's derivative matches the
   reference implementation to <= 1e-12 for every sampling x migration
   policy pair, on random instances, boards and flows - including
   boundary flows and zero-latency ties. *)
let prop_kernel_matches_reference =
  qcheck ~count:60 "qcheck: kernel derivative = reference (all policies)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let r = Rng.create ~seed () in
      let insts = instances () in
      let inst = List.nth insts (Rng.int r (List.length insts)) in
      List.for_all
        (fun board_flow ->
          let board = Bulletin_board.post inst ~time:0. board_flow in
          List.for_all
            (fun flow ->
              List.for_all
                (fun sampling ->
                  List.for_all
                    (fun migration ->
                      let policy = Policy.make ~sampling ~migration in
                      let reference =
                        Rates.flow_derivative inst policy ~board flow
                      in
                      let kernel = Rate_kernel.build inst policy ~board in
                      let fast = Rate_kernel.flow_derivative kernel flow in
                      Vec.dist_inf reference fast <= 1e-12)
                    (migrations inst))
                samplings)
            (flows inst r))
        (flows inst r))

(* --- The factored kernel ---

   Every policy without [Custom] parts compiles to sorted-latency prefix
   sums instead of a dense matrix.  The properties below exercise it on
   the boards where prefix sums are delicate: ties (the strict
   ℓ_Q < ℓ_P edge), dead edges at [Faults.dead_latency] (sums that must
   never subtract across 1e12), several commodities, and grown
   instances whose commodities occupy several runs of the global
   index. *)

(* Three commodities from different corners of a 4x4 grid. *)
let three_commodity () =
  let st = Gen.grid ~width:4 ~height:4 in
  let m = Staleroute_graph.Digraph.edge_count st.Gen.graph in
  let latencies =
    Array.init m (fun e ->
        Latency.affine
          ~slope:(0.4 +. (0.3 *. float_of_int (e mod 5)))
          ~intercept:(0.05 *. float_of_int (e mod 4)))
  in
  Instance.create ~graph:st.Gen.graph ~latencies
    ~commodities:
      [
        Commodity.make ~src:0 ~dst:15 ~demand:0.5;
        Commodity.make ~src:1 ~dst:15 ~demand:0.3;
        Commodity.make ~src:5 ~dst:15 ~demand:0.2;
      ]
    ()

(* [inst] rebuilt from one path per commodity and grown by the others
   round-robin, as column generation grows it: every commodity with
   more than two paths ends up in several runs of the global index. *)
let interleaved inst =
  let nc = Instance.commodity_count inst in
  let ps ci = Instance.paths_of_commodity inst ci in
  let base =
    Instance.of_paths ~graph:(Instance.graph inst)
      ~latencies:
        (Array.init
           (Staleroute_graph.Digraph.edge_count (Instance.graph inst))
           (Instance.latency inst))
      ~commodities:(List.init nc (Instance.commodity inst))
      ~paths:(Array.init nc (fun ci -> [ Instance.path inst (ps ci).(0) ]))
      ()
  in
  let longest = Instance.max_paths_in_commodity inst in
  let grown =
    List.concat
      (List.init (longest - 1) (fun j ->
           List.filter_map
             (fun ci ->
               if j + 1 < Array.length (ps ci) then
                 Some (ci, Instance.path inst (ps ci).(j + 1))
               else None)
             (List.init nc Fun.id)))
  in
  Instance.extend base ~paths:grown

let factored_instances () =
  [
    Common.braess ();
    Common.parallel 6;
    Common.grid33 ();
    Common.two_commodity ();
    three_commodity ();
    interleaved (Common.two_commodity ());
    interleaved (three_commodity ());
  ]

(* Posted edge latencies: induced by a random flow, drawn from
   {0, 1/4, 1/2} so that path latencies tie, or induced with one or two
   edges dead.  The second dead edge sits a quarter above the first,
   inside every test policy's window width. *)
let random_board inst r =
  let flow = Flow.random inst r in
  let ne = Staleroute_graph.Digraph.edge_count (Instance.graph inst) in
  let induced () = Flow.edge_latencies inst (Flow.edge_flows inst flow) in
  let edge_latencies =
    match Rng.int r 4 with
    | 0 -> induced ()
    | 1 -> Array.init ne (fun _ -> 0.25 *. float_of_int (Rng.int r 3))
    | dead ->
        let l = induced () in
        l.(Rng.int r ne) <- Faults.dead_latency;
        if dead = 3 then l.(Rng.int r ne) <- Faults.dead_latency +. 0.25;
        l
  in
  (flow, edge_latencies)

let post_random inst r ~time =
  let flow, edge_latencies = random_board inst r in
  Bulletin_board.post ~edge_latencies inst ~time flow

let prop_factored_matches_reference =
  qcheck ~count:80
    "qcheck: factored derivative = reference within 1e-12 max|fdot|"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let r = Rng.create ~seed () in
      let insts = factored_instances () in
      let inst = List.nth insts (Rng.int r (List.length insts)) in
      let board = post_random inst r ~time:0. in
      List.for_all
        (fun flow ->
          List.for_all
            (fun sampling ->
              List.for_all
                (fun migration ->
                  let policy = Policy.make ~sampling ~migration in
                  let reference =
                    Rates.flow_derivative inst policy ~board flow
                  in
                  let kernel = Rate_kernel.build inst policy ~board in
                  let dst = Vec.create (Instance.path_count inst) nan in
                  Rate_kernel.flow_derivative_into kernel flow ~dst;
                  let err = Vec.dist_inf reference dst in
                  err <= 1e-12 *. Vec.norm_inf reference
                  || QCheck2.Test.fail_reportf "%s: error %g, max|fdot| %g"
                       (Policy.name policy) err (Vec.norm_inf reference))
                (builtin_migrations inst))
            builtin_samplings)
        [ Flow.random inst r; Flow.uniform inst; Flow.concentrated inst ~on:(fun _ -> 0) ])

let kernels_bitwise_equal inst a b flow =
  let n = Instance.path_count inst in
  let ok = ref true in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if
        Int64.bits_of_float (Rate_kernel.rate a ~from_:p q)
        <> Int64.bits_of_float (Rate_kernel.rate b ~from_:p q)
      then ok := false
    done
  done;
  !ok
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       (Vec.to_array (Rate_kernel.flow_derivative a flow))
       (Vec.to_array (Rate_kernel.flow_derivative b flow))

(* The incremental-rebuild contract: a chain of [update]s is bitwise
   identical to rebuilding from scratch at every post — including
   faulted posts (Partial mixes stale and fresh latencies, Noise
   perturbs them) and dropped re-posts (no update at all: the old
   kernel stays current and must still match a build against the old
   board).  Checkpoint/resume byte-identity rides on this equivalence,
   because resume reconstructs kernels with [build] mid-chain. *)
let prop_update_matches_build =
  qcheck ~count:25 "qcheck: incremental update = fresh build (bitwise)"
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
      List.for_all
        (fun sampling ->
          List.for_all
            (fun migration ->
              let policy = Policy.make ~sampling ~migration in
              let board0 =
                Bulletin_board.post inst ~time:0. (Flow.random inst r)
              in
              let k = ref (Rate_kernel.build inst policy ~board:board0) in
              let prev = ref board0 in
              let ok = ref true in
              for i = 1 to 5 do
                let flow = Flow.random inst r in
                let probe_flow = Flow.random inst r in
                let time = float_of_int i in
                match Faults.fault_at faults ~index:i with
                | Some Faults.Drop ->
                    if
                      not
                        (Rate_kernel.is_current !k ~board:!prev
                        && kernels_bitwise_equal inst !k
                             (Rate_kernel.build inst policy ~board:!prev)
                             probe_flow)
                    then ok := false
                | fault ->
                    let board =
                      Faults.board faults ~index:i fault inst ~time
                        ~prev:(Some !prev) flow
                    in
                    k := Rate_kernel.update !k ~board;
                    if
                      not
                        (Rate_kernel.is_current !k ~board
                        && kernels_bitwise_equal inst !k
                             (Rate_kernel.build inst policy ~board)
                             probe_flow)
                    then ok := false;
                    prev := board
              done;
              !ok)
            (migrations inst))
        samplings)

(* A posted NaN or infinite latency cannot be sorted into prefix sums:
   that commodity is evaluated pair by pair, as the dense kernel would.
   The derivative is NaN exactly where the reference's is, and agrees
   elsewhere. *)
let test_non_finite_board_pairwise () =
  let inst = Common.parallel 5 in
  let flow = Flow.random inst (rng ()) in
  let edge_latencies =
    Flow.edge_latencies inst (Flow.edge_flows inst flow)
  in
  edge_latencies.(1) <- Float.nan;
  edge_latencies.(3) <- Float.infinity;
  let board = Bulletin_board.post ~edge_latencies inst ~time:0. flow in
  let live = Flow.random inst (rng ~seed:99 ()) in
  List.iter
    (fun sampling ->
      List.iter
        (fun migration ->
          let policy = Policy.make ~sampling ~migration in
          let reference = Rates.flow_derivative inst policy ~board live in
          let got =
            Rate_kernel.flow_derivative
              (Rate_kernel.build inst policy ~board)
              live
          in
          for p = 0 to Instance.path_count inst - 1 do
            let x = Vec.get reference p and y = Vec.get got p in
            if
              Float.is_nan x <> Float.is_nan y
              || ((not (Float.is_nan x)) && Float.abs (x -. y) > 1e-12)
            then
              Alcotest.failf "%s: fdot_%d = %g, reference %g"
                (Policy.name policy) p y x
          done)
        (builtin_migrations inst))
    [ Sampling.Uniform; Sampling.Proportional; Sampling.Mixed 0.25 ]

(* Two boards at the edges of the factored sums, each against the
   reference within 1e-12 max|fdot|:
   - a gap that splits a cluster (b − a rounds to the window width
     2.5) while b still rounds below a + 2.5: the inflow of a must
     saturate at the split, not run an affine window past it;
   - under replicator sampling with relative migration, an unused path
     far below a near tie: the tie's exchange is all that moves, and
     it must not cancel against sums anchored at the far latency. *)
let test_factored_edge_boards () =
  let check name inst policy ~edge_latencies ~posted =
    let board = Bulletin_board.post ~edge_latencies inst ~time:0. posted in
    let live = Flow.random inst (rng ~seed:5 ()) in
    let reference = Rates.flow_derivative inst policy ~board live in
    let got =
      Rate_kernel.flow_derivative (Rate_kernel.build inst policy ~board) live
    in
    let err = Vec.dist_inf reference got in
    check_true
      (Printf.sprintf "%s: error %g <= 1e-12 max|fdot| %g" name err
         (Vec.norm_inf reference))
      (err <= 1e-12 *. Vec.norm_inf reference)
  in
  let two = Common.parallel 2 in
  let a = 1.1309537029019168 and b = 3.6309537029019165 in
  check_true "b - a >= 2.5 > b - (a + 2.5)" (b -. a >= 2.5 && b < a +. 2.5);
  check "cluster split at the breakpoint" two
    (Policy.make ~sampling:Sampling.Uniform
       ~migration:(Migration.Scaled_linear { alpha = 0.4 }))
    ~edge_latencies:[| a; b |] ~posted:(Flow.uniform two);
  let three = Common.parallel 3 in
  check "far anchor below a near tie" three
    (Policy.make ~sampling:Sampling.Proportional
       ~migration:(Migration.Relative { scale = 0.5 }))
    ~edge_latencies:[| 1.; 1000.; 1000.001 |]
    ~posted:(vec [| 0.; 0.5; 0.5 |])

(* An update chain over delta reposts — sparse transfers, fresh
   random flows, tie-heavy and dead-edge boards — is bitwise a fresh
   build at every link, whether or not the update is handed the
   repost's changed set. *)
let prop_update_chain_matches_build =
  qcheck ~count:40
    "qcheck: update chain, with and without ?changed = fresh build (bitwise)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let r = Rng.create ~seed () in
      let insts = factored_instances () in
      let inst = List.nth insts (Rng.int r (List.length insts)) in
      let sampling =
        List.nth builtin_samplings (Rng.int r (List.length builtin_samplings))
      in
      let migrations = builtin_migrations inst in
      let migration = List.nth migrations (Rng.int r (List.length migrations)) in
      let policy = Policy.make ~sampling ~migration in
      let delta = Bulletin_board.delta () in
      let prev = ref (Bulletin_board.post inst ~time:0. (Flow.random inst r)) in
      let k = ref (Rate_kernel.build inst policy ~board:!prev) in
      let ok = ref true in
      for i = 1 to 8 do
        let time = float_of_int i in
        let board =
          match Rng.int r 3 with
          | 0 ->
              (* Move a little mass between two paths of one commodity. *)
              let f = Vec.copy !prev.Bulletin_board.flow in
              let ps =
                Instance.paths_of_commodity inst
                  (Rng.int r (Instance.commodity_count inst))
              in
              let a = ps.(Rng.int r (Array.length ps))
              and b = ps.(Rng.int r (Array.length ps)) in
              let moved = 0.3 *. Vec.get f a in
              Vec.set f a (Vec.get f a -. moved);
              Vec.set f b (Vec.get f b +. moved);
              Bulletin_board.repost ~delta inst ~prev:!prev ~time f
          | 1 ->
              Bulletin_board.repost ~delta inst ~prev:!prev ~time
                (Flow.random inst r)
          | _ ->
              let flow, edge_latencies = random_board inst r in
              Bulletin_board.repost ~delta ~edge_latencies inst ~prev:!prev
                ~time flow
        in
        (k :=
           if Rng.bool r then
             Rate_kernel.update
               ~changed:
                 ( Bulletin_board.changed_paths delta,
                   Bulletin_board.changed_count delta )
               !k ~board
           else Rate_kernel.update !k ~board);
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

let test_rate_accessor_matches_migration_rate () =
  let inst = Common.two_commodity () in
  let f = Flow.random inst (rng ()) in
  let board = Bulletin_board.post inst ~time:0. f in
  let policy = Policy.uniform_linear inst in
  let kernel = Rate_kernel.build inst policy ~board in
  let live = Flow.random inst (rng ~seed:777 ()) in
  for p = 0 to Instance.path_count inst - 1 do
    for q = 0 to Instance.path_count inst - 1 do
      let expected =
        if p = q then 0.
        else Rates.migration_rate inst policy ~board ~flow:live ~from_:p q
      in
      check_close ~eps:1e-12
        (Printf.sprintf "f_P * R_%d,%d = rho_%d,%d" p q p q)
        expected
        (Staleroute_util.Vec.get live p *. Rate_kernel.rate kernel ~from_:p q)
    done
  done;
  (* The kernel's inline µ must be [Migration.prob] bit for bit, for
     every rule, under every sampling (σ_q from the origin p). *)
  let lat = board.Bulletin_board.path_latencies in
  let bflow = board.Bulletin_board.flow in
  let sigma = Array.make (Instance.max_paths_in_commodity inst) 0. in
  List.iter
    (fun sampling ->
      List.iter
        (fun migration ->
          let k =
            Rate_kernel.build inst (Policy.make ~sampling ~migration) ~board
          in
          for p = 0 to Instance.path_count inst - 1 do
            let ci = Instance.commodity_of_path inst p in
            Sampling.distribution_into sampling inst ~commodity:ci ~flow:bflow
              ~latencies:lat ~from_:p ~dst:sigma;
            Array.iter
              (fun q ->
                if q <> p then begin
                  let expected =
                    sigma.(Instance.local_index_of_path inst q)
                    *. Migration.prob migration ~ell_p:lat.(p) ~ell_q:lat.(q)
                  in
                  let got = Rate_kernel.rate k ~from_:p q in
                  if Int64.bits_of_float expected <> Int64.bits_of_float got
                  then
                    Alcotest.failf "%s/%s: R_%d,%d = %h, sigma*mu = %h"
                      (Sampling.name sampling) (Migration.name migration) p q
                      got expected
                end)
              (Instance.paths_of_commodity inst ci)
          done)
        (migrations inst))
    samplings

let test_cross_commodity_rate_is_zero () =
  let inst = Common.two_commodity () in
  let board = Bulletin_board.post inst ~time:0. (Flow.uniform inst) in
  let kernel = Rate_kernel.build inst (Policy.uniform_linear inst) ~board in
  let c0 = (Instance.paths_of_commodity inst 0).(0) in
  let c1 = (Instance.paths_of_commodity inst 1).(0) in
  check_close "no cross-commodity migration" 0.
    (Rate_kernel.rate kernel ~from_:c0 c1)

let test_kernel_validation () =
  let inst = Common.braess () in
  let board = Bulletin_board.post inst ~time:0. (Flow.uniform inst) in
  let kernel = Rate_kernel.build inst (Policy.uniform_linear inst) ~board in
  check_int "dim" (Instance.path_count inst) (Rate_kernel.dim kernel);
  check_raises_invalid "dimension mismatch" (fun () ->
      Rate_kernel.flow_derivative_into kernel (vec [| 0.5; 0.5 |])
        ~dst:(Staleroute_util.Vec.create 3 0.));
  check_raises_invalid "aliasing" (fun () ->
      let f = Flow.uniform inst in
      Rate_kernel.flow_derivative_into kernel f ~dst:f);
  (* A board over another instance (3 Braess paths against 5 parallel
     links) must be refused, not read out of bounds. *)
  let wide = Common.parallel 5 in
  let wide_kernel =
    Rate_kernel.build wide (Policy.uniform_linear wide)
      ~board:(Bulletin_board.post wide ~time:0. (Flow.uniform wide))
  in
  Alcotest.check_raises "build over a foreign board"
    (Invalid_argument "Rate_kernel.build: board is over a different instance")
    (fun () ->
      ignore (Rate_kernel.build wide (Policy.uniform_linear wide) ~board));
  Alcotest.check_raises "update with a foreign board"
    (Invalid_argument
       "Rate_kernel.update: board is over a different instance")
    (fun () -> ignore (Rate_kernel.update wide_kernel ~board))

let test_kernel_is_stale () =
  (* The kernel freezes the board: rebuilding after a re-post is what
     changes the rates, not the live flow. *)
  let inst = Common.two_link ~beta:4. in
  let balanced = vec [| 0.5; 0.5 |] in
  let skewed = vec [| 0.9; 0.1 |] in
  let board = Bulletin_board.post inst ~time:0. balanced in
  let kernel = Rate_kernel.build inst (Policy.uniform_linear inst) ~board in
  let d = Rate_kernel.flow_derivative kernel skewed in
  check_close "balanced board freezes migration" 0. (Vec.norm_inf d);
  let reposted = Bulletin_board.post inst ~time:1. skewed in
  let kernel' = Rate_kernel.build inst (Policy.uniform_linear inst) ~board:reposted in
  check_true "re-post revives migration"
    (Vec.norm_inf (Rate_kernel.flow_derivative kernel' skewed) > 0.)

let test_integrate_into_matches_integrate () =
  (* The in-place integrator must be bit-identical to the allocating
     one for the same derivative. *)
  let inst = Common.grid33 () in
  let f0 = Flow.random inst (rng ()) in
  let board = Bulletin_board.post inst ~time:0. f0 in
  let policy = Policy.replicator inst in
  let kernel = Rate_kernel.build inst policy ~board in
  let pool = Vec.Pool.create ~dim:(Instance.path_count inst) in
  List.iter
    (fun scheme ->
      let by_old =
        Integrator.integrate_phase scheme inst
          ~deriv:(Rate_kernel.flow_derivative kernel)
          ~f0 ~tau:0.4 ~steps:7
      in
      let f = Vec.copy f0 in
      Integrator.integrate_phase_into scheme inst ~pool
        ~deriv_into:(Rate_kernel.flow_derivative_into kernel)
        ~f ~tau:0.4 ~steps:7;
      check_true
        (Integrator.scheme_name scheme ^ ": in-place = allocating, bitwise")
        (by_old = f))
    [ Integrator.Euler; Integrator.Rk4 ]

let test_driver_matches_reference_integration () =
  (* End to end: the driver's kernel path stays within float noise of a
     hand-rolled reference integration of the same phases. *)
  let inst = Common.braess () in
  let policy = Policy.uniform_linear inst in
  let config =
    {
      Driver.policy;
      staleness = Driver.Stale 0.25;
      phases = 12;
      steps_per_phase = 8;
      scheme = Integrator.Rk4;
    }
  in
  let init = Common.biased_start inst in
  let by_driver = (Driver.run inst config ~init).Driver.final_flow in
  let f = ref (Flow.project inst init) in
  for k = 0 to config.Driver.phases - 1 do
    let board =
      Bulletin_board.post inst ~time:(0.25 *. float_of_int k) !f
    in
    let deriv g = Rates.flow_derivative inst policy ~board g in
    f :=
      Integrator.integrate_phase config.Driver.scheme inst ~deriv ~f0:!f
        ~tau:0.25 ~steps:config.Driver.steps_per_phase
  done;
  check_true "driver (kernel) = reference phase integration"
    (Vec.dist_inf by_driver !f < 1e-10)

let measure_steps inst kernel pool ~steps =
  let f = Flow.uniform inst in
  let deriv_into = Rate_kernel.flow_derivative_into kernel in
  (* Warm-up call: grows the pool and triggers any one-time boxing. *)
  Integrator.integrate_phase_into Integrator.Euler inst ~pool ~deriv_into ~f
    ~tau:0.001 ~steps:1;
  let before = Gc.minor_words () in
  Integrator.integrate_phase_into Integrator.Euler inst ~pool ~deriv_into ~f
    ~tau:0.001 ~steps;
  Gc.minor_words () -. before

let test_euler_path_allocation_free () =
  (* Per-call setup may box a few constants; the per-step cost must be
     exactly zero words.  Only meaningful in native code - bytecode
     boxes every float temporary. *)
  match Sys.backend_type with
  | Sys.Native ->
      let inst = Common.parallel 8 in
      let board = Bulletin_board.post inst ~time:0. (Flow.uniform inst) in
      let kernel = Rate_kernel.build inst (Policy.replicator inst) ~board in
      let pool = Vec.Pool.create ~dim:(Instance.path_count inst) in
      let small = measure_steps inst kernel pool ~steps:10 in
      let large = measure_steps inst kernel pool ~steps:1010 in
      check_close "0 words per euler step" 0. ((large -. small) /. 1000.)
  | _ -> ()

(* Kernel updates on [multicommodity_parallel 20] (40 paths), each
   alternating between two boards so every call really refreshes, and
   allocating nothing: neither between boards that keep the paths'
   order nor between boards that reorder them (the in-place insertion
   sort moves entries). *)
let update_words kernel (a, b) =
  let flip = ref false in
  words_per_call (fun () ->
      flip := not !flip;
      ignore (Rate_kernel.update kernel ~board:(if !flip then a else b)))

let test_update_allocation_bounded () =
  match Sys.backend_type with
  | Sys.Native ->
      let inst = multicommodity_parallel 20 in
      let policy = Policy.uniform_linear inst in
      let flow = Flow.uniform inst in
      let board = Bulletin_board.post inst ~time:0. flow in
      (* Shares that differ from [flow] on every path: a uniform
         rescale would project straight back to [flow]. *)
      let shifted =
        Flow.project inst
          (Vec.init (Instance.path_count inst) (fun i ->
               Vec.get flow i *. (1. +. (0.01 *. float_of_int (1 + (i mod 3))))))
      in
      let board2 = Bulletin_board.post inst ~time:1e-3 shifted in
      check_close "update: 0 minor words per call" 0.
        (update_words (Rate_kernel.build inst policy ~board) (board2, board))
  | _ -> ()

let test_reordering_update_allocation_free () =
  let inst = multicommodity_parallel 20 in
  let policy = Policy.uniform_linear inst in
  let board = Bulletin_board.post inst ~time:0. (Flow.uniform inst) in
  let rboard =
    Bulletin_board.post inst ~time:2e-3 (Flow.random inst (rng ~seed:3 ()))
  in
  (* Pairs of one commodity's paths whose posted order the two boards
     disagree on. *)
  let inversions =
    let la = board.Bulletin_board.path_latencies
    and lb = rboard.Bulletin_board.path_latencies in
    let count = ref 0 in
    for ci = 0 to Instance.commodity_count inst - 1 do
      let ps = Instance.paths_of_commodity inst ci in
      Array.iter
        (fun p ->
          Array.iter
            (fun q -> if la.(p) < la.(q) && lb.(p) > lb.(q) then incr count)
            ps)
        ps
    done;
    !count
  in
  check_int "reorder inversions" 48 inversions;
  match Sys.backend_type with
  | Sys.Native ->
      check_close "reordering update: 0 minor words per call" 0.
        (update_words (Rate_kernel.build inst policy ~board) (rboard, board))
  | _ -> ()

(* The faulted repost path ([repost ~edge_latencies], what partial,
   noise and outage boards go through) under a small allocation bound:
   with a persistent delta scratch, a steady-state call that dirties
   every edge allocates the new board and nothing for the scan
   itself. *)
let test_faulted_repost_allocation_bounded () =
  match Sys.backend_type with
  | Sys.Native ->
      let inst = Common.parallel 40 in
      let f = Flow.uniform inst in
      let g = Vec.copy f in
      Vec.set g 0 (Vec.get g 0 -. 0.004);
      Vec.set g 1 (Vec.get g 1 +. 0.004);
      let induced x = Flow.edge_latencies inst (Flow.edge_flows inst x) in
      let noisy = Array.map (fun l -> l *. 1.01) (induced g) in
      let clean = induced f in
      let delta = Bulletin_board.delta () in
      let prev = ref (Bulletin_board.post inst ~time:0. f) in
      let flip = ref false in
      let call () =
        flip := not !flip;
        prev :=
          if !flip then
            Bulletin_board.repost ~delta ~edge_latencies:noisy inst ~prev:!prev
              ~time:0. g
          else
            Bulletin_board.repost ~delta ~edge_latencies:clean inst ~prev:!prev
              ~time:0. f
      in
      let measure reps =
        call ();
        let before = Gc.minor_words () in
        for _ = 1 to reps do
          call ()
        done;
        Gc.minor_words () -. before
      in
      let words = (measure 1001 -. measure 1) /. 1000. in
      check_true
        (Printf.sprintf "repost ~edge_latencies: %.1f minor words <= 256"
           words)
        (words <= 256.)
  | _ -> ()

let suite =
  [
    prop_kernel_matches_reference;
    prop_update_matches_build;
    prop_factored_matches_reference;
    prop_update_chain_matches_build;
    case "rate accessor = migration_rate" test_rate_accessor_matches_migration_rate;
    case "cross-commodity rate" test_cross_commodity_rate_is_zero;
    case "non-finite board evaluated pairwise" test_non_finite_board_pairwise;
    case "factored sums at their edge cases" test_factored_edge_boards;
    case "validation" test_kernel_validation;
    case "kernel is stale until rebuilt" test_kernel_is_stale;
    case "in-place integrator bit-identical" test_integrate_into_matches_integrate;
    case "driver end-to-end vs reference" test_driver_matches_reference_integration;
    case "euler path allocation-free" test_euler_path_allocation_free;
    case "update allocation bounded" test_update_allocation_bounded;
    case "reordering update allocation-free"
      test_reordering_update_allocation_free;
    case "faulted repost allocation bounded"
      test_faulted_repost_allocation_bounded;
  ]
