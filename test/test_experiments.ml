(* Integration tests: each experiment harness runs end-to-end in quick
   mode and its output carries the paper's qualitative shape. *)

open Helpers
open Staleroute_experiments
module Table = Staleroute_util.Table

let rows_of table = Table.rows table

let float_cell row i = float_of_string (List.nth row i)

let test_common_instances_well_formed () =
  List.iter
    (fun (name, inst) ->
      check_true
        (name ^ " has paths")
        (Staleroute_wardrop.Instance.path_count inst > 0))
    [
      ("two-link", Common.two_link ~beta:2.);
      ("braess", Common.braess ());
      ("parallel", Common.parallel 5);
      ("needle", Common.needle 5);
      ("grid", Common.grid33 ());
      ("layered", Common.layered_random ~seed:1);
      ("poly-parallel", Common.poly_parallel ~m:4 ~degree:4);
      ("two-commodity", Common.two_commodity ());
    ]

let test_needle_validation () =
  check_raises_invalid "needle needs m >= 2" (fun () ->
      ignore (Common.needle 1))

let test_starts () =
  let inst = Common.braess () in
  check_true "worst start feasible"
    (Staleroute_wardrop.Flow.is_feasible inst (Common.worst_start inst));
  let biased = Common.biased_start inst in
  check_true "biased start feasible"
    (Staleroute_wardrop.Flow.is_feasible inst biased);
  check_true "biased start interior"
    (Staleroute_util.Vec.for_all (fun x -> x > 0.) biased)

let test_safe_period_capped_at_one () =
  (* An instance with tiny beta would have a huge T*; Theorems 6/7 also
     need T <= 1. *)
  let inst = Common.needle 4 in
  let t = Common.safe_period inst (Staleroute_dynamics.Policy.uniform_linear inst) in
  check_true "T <= 1" (t <= 1.)

let test_e1_shape () =
  match E1_oscillation.tables ~quick:true () with
  | [ orbit; bound ] ->
      check_true "orbit rows" (Table.row_count orbit > 0);
      List.iter
        (fun row ->
          (* X analytic (col 2) = X measured (col 3); oscillating. *)
          check_close ~eps:1e-9 "X matches closed form" (float_cell row 2)
            (float_cell row 3);
          check_true "period-2 flagged" (List.nth row 5 = "true"))
        (rows_of orbit);
      List.iter
        (fun row -> check_true "deviation within eps" (List.nth row 4 = "true"))
        (rows_of bound)
  | _ -> Alcotest.fail "e1 must produce two tables"

let test_e2_shape () =
  match E2_fresh_convergence.tables ~quick:true () with
  | [ t ] ->
      check_true "rows present" (Table.row_count t > 0);
      List.iter
        (fun row ->
          check_true "phi decreased" (float_cell row 3 <= float_cell row 2);
          check_true "phi >= phi*"
            (float_cell row 3 >= float_cell row 4 -. 1e-6);
          check_true "monotone" (List.nth row 6 = "true"))
        (rows_of t)
  | _ -> Alcotest.fail "e2 must produce one table"

let test_e3_shape () =
  match E3_stale_convergence.tables ~quick:true () with
  | [ smooth; nonsmooth ] ->
      (* Smooth policies at T/T* <= 1 must not oscillate and must not
         increase the potential. *)
      List.iter
        (fun row ->
          if float_of_string (List.nth row 3) <= 1. then begin
            check_int "no phi increases at safe period" 0
              (int_of_string (List.nth row 5));
            check_true "no oscillation" (List.nth row 6 = "false")
          end)
        (rows_of smooth);
      (* The exact best response rows must oscillate. *)
      List.iter
        (fun row ->
          if List.nth row 1 = "best-response" then
            check_true "best response oscillates" (List.nth row 4 = "true"))
        (rows_of nonsmooth)
  | _ -> Alcotest.fail "e3 must produce two tables"

let test_e4_shape () =
  match E4_potential_inequality.tables ~quick:true () with
  | [ t ] ->
      List.iter
        (fun row ->
          let phases = List.nth row 2 in
          check_true "V <= 0 in every phase"
            (List.nth row 3 = phases ^ "/" ^ phases);
          check_true "halving inequality in every phase"
            (List.nth row 4 = phases ^ "/" ^ phases);
          check_true "Lemma 3 residual tiny" (float_cell row 5 < 1e-9))
        (rows_of t)
  | _ -> Alcotest.fail "e4 must produce one table"

let test_e5_e6_shape () =
  (match E5_uniform_scaling.tables ~quick:true () with
  | [ t ] ->
      let rows = rows_of t in
      check_true "at least two widths" (List.length rows >= 2);
      let bad m = int_of_string (List.nth (List.nth rows m) 2) in
      check_true "bad rounds grow with m" (bad 1 > bad 0);
      (* The measured count respects Theorem 6's explicit constant. *)
      List.iter
        (fun row ->
          check_true "measured <= Thm 6 bound"
            (int_of_string (List.nth row 2)
            <= int_of_string (List.nth row 4)))
        rows
  | _ -> Alcotest.fail "e5 must produce one table");
  match E6_proportional_scaling.tables ~quick:true () with
  | [ t ] ->
      let rows = rows_of t in
      let repl m = int_of_string (List.nth (List.nth rows m) 1) in
      let unif m = int_of_string (List.nth (List.nth rows m) 4) in
      (* Replicator grows much slower than uniform between the two
         quick widths (2 -> 8). *)
      check_true "replicator scales better"
        (repl 1 - repl 0 < unif 1 - unif 0);
      List.iter
        (fun row ->
          check_true "measured <= Thm 7 bound"
            (int_of_string (List.nth row 1)
            <= int_of_string (List.nth row 3)))
        rows
  | _ -> Alcotest.fail "e6 must produce one table"

let test_e7_shape () =
  match E7_delta_eps_scaling.tables ~quick:true () with
  | [ dt; et ] ->
      let bad table r = int_of_string (List.nth (List.nth (rows_of table) r) 1) in
      (* Smaller delta / eps -> no fewer bad rounds. *)
      check_true "delta monotone" (bad dt 1 >= bad dt 0);
      check_true "eps monotone" (bad et 1 >= bad et 0)
  | _ -> Alcotest.fail "e7 must produce two tables"

let test_e8_shape () =
  match E8_finite_population.tables ~quick:true () with
  | [ t ] ->
      let rows = rows_of t in
      let mean r = float_cell (List.nth rows r) 1 in
      check_true "distance shrinks with N" (mean 1 < mean 0)
  | _ -> Alcotest.fail "e8 must produce one table"

let test_e9_shape () =
  match E9_ablation.tables ~quick:true () with
  | [ integ; sharp ] ->
      (* RK4 at 20 steps must beat Euler at 1 step. *)
      let err scheme steps =
        List.find
          (fun row ->
            List.nth row 0 = scheme && List.nth row 1 = string_of_int steps)
          (rows_of integ)
        |> fun row -> float_cell row 2
      in
      check_true "rk4 dominates coarse euler" (err "rk4" 20 < err "euler" 1);
      (* kappa = 1 (the safe setting) must converge without increases. *)
      List.iter
        (fun row ->
          if List.nth row 0 = "1" then
            check_true "safe kappa has no oscillation"
              (List.nth row 3 = "false"))
        (rows_of sharp)
  | _ -> Alcotest.fail "e9 must produce two tables"

let test_two_commodity_structure () =
  let inst = Common.two_commodity () in
  check_int "two commodities"
    2
    (Staleroute_wardrop.Instance.commodity_count inst);
  check_int "two paths each" 2
    (Array.length (Staleroute_wardrop.Instance.paths_of_commodity inst 0));
  check_close "demands" 0.6 (Staleroute_wardrop.Instance.demand inst 0)

let test_poly_parallel_constants () =
  let inst = Common.poly_parallel ~m:4 ~degree:8 in
  (* beta grows with the degree... *)
  check_true "steep slope bound"
    (Staleroute_wardrop.Instance.beta inst >= 8.);
  (* ...but the elasticity stays at the degree. *)
  check_close "elasticity = degree" 8.
    (Staleroute_dynamics.Policy.elastic_update_period inst
    |> fun t -> 1. /. (4. *. t))

let test_e10_shape () =
  match E10_elastic_policy.tables ~quick:true () with
  | [ t ] ->
      List.iter
        (fun row ->
          check_true "frv does not oscillate" (List.nth row 8 = "false");
          (* FRV settles within the horizon on the quick sizes. *)
          check_true "frv settles"
            (not (String.length (List.nth row 6) > 0
                 && (List.nth row 6).[0] = '>')))
        (rows_of t)
  | _ -> Alcotest.fail "e10 must produce one table"

let test_e11_shape () =
  match E11_stale_vs_random.tables ~quick:true () with
  | [ t ] ->
      let rows = rows_of t in
      (* At the largest staleness the greedy policy is worse than the
         blind assignment. *)
      let last = List.nth rows (List.length rows - 1) in
      check_true "stale greedy loses to blind" (List.nth last 3 = "true");
      (* Best-response latency grows with T. *)
      let br r = float_cell (List.nth rows r) 1 in
      check_true "BR degrades with T" (br (List.length rows - 1) > br 0)
  | _ -> Alcotest.fail "e11 must produce one table"

let test_e12_shape () =
  match E12_multicommodity.tables ~quick:true () with
  | [ t ] ->
      List.iter
        (fun row ->
          check_int "no potential increases" 0
            (int_of_string (List.nth row 3));
          check_true "phi >= phi*"
            (float_cell row 1 >= float_cell row 2 -. 1e-9))
        (rows_of t)
  | _ -> Alcotest.fail "e12 must produce one table"

let test_e13_shape () =
  match E13_convergence_rate.tables ~quick:true () with
  | [ t ] ->
      List.iter
        (fun row ->
          (* All smooth policies on braess have a measurable rate, and
             staleness at T* costs little: slowdown below 2x. *)
          let fresh = float_cell row 2 and stale = float_cell row 3 in
          check_true "positive fresh rate" (fresh > 0.);
          check_true "positive stale rate" (stale > 0.);
          check_true "staleness at T* is cheap" (fresh /. stale < 2.))
        (rows_of t)
  | _ -> Alcotest.fail "e13 must produce one table"

let test_e14_shape () =
  match E14_synchronous_rounds.tables ~quick:true () with
  | [ t ] ->
      List.iter
        (fun row ->
          (* At kappa = 1 (within the safe region) both variants
             converge. *)
          if List.nth row 0 = "1.0" then begin
            check_true "continuous converges at kappa 1"
              (List.nth row 2 = "false");
            check_true "synchronous converges at kappa 1"
              (List.nth row 4 = "false")
          end)
        (rows_of t)
  | _ -> Alcotest.fail "e14 must produce one table"

let test_e15_shape () =
  match E15_polled_information.tables ~quick:true () with
  | [ t ] -> (
      match rows_of t with
      | [ greedy; smooth ] ->
          (* Robust across population regimes: the smooth policy has no
             measurable swing under either delivery mode, the greedy
             policy swings in both. *)
          check_true "smooth swings are tiny"
            (float_cell smooth 1 < 0.01 && float_cell smooth 3 < 0.01);
          check_true "greedy swings dominate"
            (float_cell greedy 1 > float_cell smooth 1
            && float_cell greedy 3 > float_cell smooth 3)
      | _ -> Alcotest.fail "e15 must have two rows")
  | _ -> Alcotest.fail "e15 must produce one table"

let test_e16_shape () =
  match E16_phase_diagram.tables ~quick:true () with
  | [ t ] ->
      let rows = rows_of t in
      (* Monotone structure of the stability region: within a row,
         once a cell oscillates every later (larger-T) cell does too;
         and cells inside the guaranteed region never oscillate. *)
      let multiples = [ 0.5; 1.; 4.; 16. ] in
      List.iteri
        (fun i row ->
          let cells = List.tl row in
          let seen_osc = ref false in
          List.iteri
            (fun j cell ->
              let product = List.nth multiples i *. List.nth multiples j in
              if product <= 1. then
                check_true "guaranteed region never oscillates"
                  (cell <> "OSC");
              if !seen_osc then
                check_true "oscillation is monotone in T" (cell = "OSC");
              if cell = "OSC" then seen_osc := true)
            cells)
        rows;
      check_true "figure renders"
        (match E16_phase_diagram.figures ~quick:true () with
        | [ fig ] -> String.length fig > 0
        | _ -> false)
  | _ -> Alcotest.fail "e16 must produce one table"

let test_e17_shape () =
  match E17_unreliable_board.tables ~quick:true () with
  | [ period; drops; noise ] ->
      (* Regime-independent facts only: the drop-free row has exactly
         one post per phase, dropping posts strictly reduces them, and
         the measured effective period grows with p. *)
      let rows = rows_of period in
      check_int "one period row per drop probability" 3 (List.length rows);
      let posts = List.map (fun row -> float_cell row 1) rows in
      let effs = List.map (fun row -> float_cell row 2) rows in
      (match (posts, effs) with
      | p0 :: rest_posts, e0 :: rest_effs ->
          check_close "p=0: a post lands every phase" 1. e0;
          List.iter
            (fun p -> check_true "drops lose posts" (p < p0))
            rest_posts;
          List.iter
            (fun e -> check_true "drops inflate the period" (e > 1.))
            rest_effs
      | _ -> Alcotest.fail "empty period table");
      (* Boundary sweeps: a verdict cell for every (alpha, spec) pair,
         and the smallest-alpha row converges in every column. *)
      List.iter
        (fun t ->
          match rows_of t with
          | first :: _ as rs ->
              check_true "alpha sweep has rows" (List.length rs >= 2);
              List.iter
                (fun cell ->
                  check_true "smooth alpha converges under faults"
                    (cell = "conv"))
                (List.tl first)
          | [] -> Alcotest.fail "empty boundary table")
        [ drops; noise ]
  | _ -> Alcotest.fail "e17 must produce three tables"

let test_e18_shape () =
  match E18_colgen_scaling.tables ~quick:true () with
  | [ t ] ->
      let rows = rows_of t in
      check_int "two quick rows" 2 (List.length rows);
      List.iter
        (fun row ->
          (* Regime-independent facts: the active set stays within the
             enumerable set (and well under the growth runaway regime),
             and every quick size converges to a delta-equilibrium. *)
          let enumerable = float_cell row 2 in
          let active = float_cell row 3 in
          check_true "active set within the enumerable set"
            (active >= 1. && active <= enumerable);
          check_true "quick sizes converge" (float_cell row 6 <= 1e-3))
        rows
  | _ -> Alcotest.fail "e18 must produce one table"

let test_e19_shape () =
  match E19_edge_outage.tables ~quick:true () with
  | [ cost; lag ] ->
      (* Regime-independent facts: outages strictly raise the mean
         potential gap at every period, and every lag cell saw edge
         failures. *)
      let cost_rows = rows_of cost in
      check_int "one cost row per period multiple" 2 (List.length cost_rows);
      List.iter
        (fun row ->
          check_true "clean mean gap is positive" (float_cell row 1 > 0.);
          List.iteri
            (fun i cell ->
              if i >= 2 then begin
                let ratio =
                  (* "%0.2fx" cells: strip the trailing x. *)
                  float_of_string (String.sub cell 0 (String.length cell - 1))
                in
                check_true "outage raises the mean gap" (ratio > 1.)
              end)
            row)
        cost_rows;
      let lag_rows = rows_of lag in
      check_int "one lag row per period multiple" 2 (List.length lag_rows);
      List.iter
        (fun row ->
          List.iteri
            (fun i cell ->
              if i >= 1 then
                check_true "every outage cell saw failures"
                  (Str_contains.contains cell "down"))
            row)
        lag_rows
  | _ -> Alcotest.fail "e19 must produce two tables"

(* Ambient instrumentation reaches both halves of E14: each half runs
   2 kappas x 150 phases with one repost per phase (600 in all), the
   continuous half 24000 RK4 evaluations (20 steps x 4 stages per
   phase) and the synchronous half 300 Euler ones (one per round).
   Instrumenting leaves the table unchanged. *)
let test_e14_ambient_instrumentation () =
  let module Metrics = Staleroute_obs.Metrics in
  let plain = E14_synchronous_rounds.tables ~quick:true () in
  let metrics = Metrics.create () in
  Common.set_instrumentation ~probe:Staleroute_obs.Probe.null ~metrics ();
  let instrumented =
    Fun.protect ~finally:Common.clear_instrumentation (fun () ->
        E14_synchronous_rounds.tables ~quick:true ())
  in
  let count name = Metrics.count (Metrics.counter metrics name) in
  check_int "board reposts" 600 (count "board_reposts");
  check_int "derivative evaluations" 24300 (count "derivative_evals");
  check_true "instrumented table unchanged"
    (List.map Table.to_string plain = List.map Table.to_string instrumented)

let suite =
  [
    case "instances well-formed" test_common_instances_well_formed;
    case "two-commodity structure" test_two_commodity_structure;
    case "poly-parallel constants" test_poly_parallel_constants;
    case "needle validation" test_needle_validation;
    case "starting flows" test_starts;
    case "safe period cap" test_safe_period_capped_at_one;
    slow_case "E1 end-to-end" test_e1_shape;
    slow_case "E2 end-to-end" test_e2_shape;
    slow_case "E3 end-to-end" test_e3_shape;
    slow_case "E4 end-to-end" test_e4_shape;
    slow_case "E5/E6 end-to-end" test_e5_e6_shape;
    slow_case "E7 end-to-end" test_e7_shape;
    slow_case "E8 end-to-end" test_e8_shape;
    slow_case "E9 end-to-end" test_e9_shape;
    slow_case "E10 end-to-end" test_e10_shape;
    slow_case "E11 end-to-end" test_e11_shape;
    slow_case "E12 end-to-end" test_e12_shape;
    slow_case "E13 end-to-end" test_e13_shape;
    slow_case "E14 end-to-end" test_e14_shape;
    slow_case "E15 end-to-end" test_e15_shape;
    slow_case "E16 end-to-end" test_e16_shape;
    slow_case "E17 end-to-end" test_e17_shape;
    slow_case "E18 end-to-end" test_e18_shape;
    slow_case "E19 end-to-end" test_e19_shape;
    slow_case "E14 under ambient instrumentation"
      test_e14_ambient_instrumentation;
  ]
