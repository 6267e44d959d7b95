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

let samplings =
  [
    Sampling.Uniform;
    Sampling.Proportional;
    Sampling.Logit 3.;
    Sampling.Mixed 0.25;
    custom_sampling;
  ]

let migrations inst =
  [
    Migration.Better_response;
    Migration.Linear { ell_max = Float.max 1. (Instance.ell_max inst) };
    Migration.Scaled_linear { alpha = 0.7 };
    Migration.Relative { scale = 0.5 };
    custom_migration;
  ]

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

(* Sharding the build across a domain pool compiles each commodity's
   block into its own slice of the kernel: the result must be
   bit-identical to the sequential build, for every policy pair and any
   pool width. *)
let prop_sharded_build_bit_identical =
  qcheck ~count:30 "qcheck: sharded build = whole build (bitwise)"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 0 1_000_000))
    (fun (width, seed) ->
      let r = Rng.create ~seed () in
      let insts = instances () in
      let inst = List.nth insts (Rng.int r (List.length insts)) in
      let board = Bulletin_board.post inst ~time:0. (Flow.random inst r) in
      let flow = Flow.random inst r in
      Staleroute_util.Pool.with_pool ~domains:width (fun pool ->
          List.for_all
            (fun sampling ->
              List.for_all
                (fun migration ->
                  let policy = Policy.make ~sampling ~migration in
                  let whole = Rate_kernel.build inst policy ~board in
                  (* The test instances sit below the auto-threshold,
                     so force sharding to exercise the pooled path. *)
                  let sharded =
                    Rate_kernel.build ?pool ~shard_min_entries:0 inst policy
                      ~board
                  in
                  Rate_kernel.flow_derivative whole flow
                  = Rate_kernel.flow_derivative sharded flow
                  &&
                  let n = Instance.path_count inst in
                  let ok = ref true in
                  for p = 0 to n - 1 do
                    for q = 0 to n - 1 do
                      if
                        not
                          (Float.equal
                             (Rate_kernel.rate whole ~from_:p q)
                             (Rate_kernel.rate sharded ~from_:p q))
                      then ok := false
                    done
                  done;
                  !ok)
                (migrations inst))
            samplings))

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

(* The faulted repost path ([repost ~edge_latencies], what partial,
   noise and outage boards go through) under the clean repost's
   allocation bound: with a persistent delta scratch, a steady-state
   call that dirties every edge allocates the new board and nothing for
   the scan itself — at most 256 words here, the bound [@perf-smoke]
   applies to the clean repost. *)
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
    prop_sharded_build_bit_identical;
    prop_update_matches_build;
    case "rate accessor = migration_rate" test_rate_accessor_matches_migration_rate;
    case "cross-commodity rate" test_cross_commodity_rate_is_zero;
    case "validation" test_kernel_validation;
    case "kernel is stale until rebuilt" test_kernel_is_stale;
    case "in-place integrator bit-identical" test_integrate_into_matches_integrate;
    case "driver end-to-end vs reference" test_driver_matches_reference_integration;
    case "euler path allocation-free" test_euler_path_allocation_free;
    case "faulted repost allocation bounded"
      test_faulted_repost_allocation_bounded;
  ]
