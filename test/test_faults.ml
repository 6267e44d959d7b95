(* Fault plans for the bulletin board: spec validation, CLI parsing,
   pure seeded draws and the faulted board constructors. *)

open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
module Common = Staleroute_experiments.Common

let mixed_spec ?(seed = 9) () =
  Faults.make ~drop:0.2 ~delay:0.2 ~partial:0.2 ~noise:0.2 ~seed ()

let test_make_validates () =
  check_raises_invalid "negative probability" (fun () ->
      ignore (Faults.make ~drop:(-0.1) ()));
  check_raises_invalid "probability above one" (fun () ->
      ignore (Faults.make ~noise:1.5 ()));
  check_raises_invalid "probabilities sum above one" (fun () ->
      ignore (Faults.make ~drop:0.6 ~partial:0.6 ()));
  check_raises_invalid "delay fraction at boundary" (fun () ->
      ignore (Faults.make ~delay:0.5 ~delay_fraction:1. ()));
  check_raises_invalid "partial fraction zero" (fun () ->
      ignore (Faults.make ~partial:0.5 ~partial_fraction:0. ()));
  check_raises_invalid "noise sigma non-positive" (fun () ->
      ignore (Faults.make ~noise:0.5 ~noise_sigma:0. ()));
  check_raises_invalid "non-finite probability" (fun () ->
      ignore (Faults.make ~drop:Float.nan ()))

let test_of_string_round_trip () =
  let cases =
    [
      "none";
      "drop=0.3";
      "drop=0.2,seed=7";
      "delay=0.25:0.75";
      "partial=0.4:0.2,noise=0.1:0.5";
      "drop=0.1,delay=0.1,partial=0.1,noise=0.1,seed=42";
    ]
  in
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Error e -> Alcotest.failf "%S should parse, got %s" s e
      | Ok spec -> (
          (* to_string re-parses to the same spec. *)
          match Faults.of_string (Faults.to_string spec) with
          | Error e -> Alcotest.failf "round trip of %S failed: %s" s e
          | Ok spec' ->
              check_true (Printf.sprintf "round trip of %S" s) (spec = spec')))
    cases

let test_of_string_rejects () =
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" s)
    [ "drop"; "drop=2"; "drop=0.6,noise=0.6"; "bogus=1"; "drop=0.1:" ]

let test_fault_at_is_pure () =
  let p1 = Faults.plan (mixed_spec ()) in
  let p2 = Faults.plan (mixed_spec ()) in
  for i = 0 to 499 do
    check_true "same (seed, index) gives the same draw"
      (Faults.fault_at p1 ~index:i = Faults.fault_at p2 ~index:i)
  done;
  (* Out-of-order queries agree with in-order ones: no hidden state. *)
  let expected = Faults.fault_at p1 ~index:250 in
  check_true "out-of-order query agrees"
    (Faults.fault_at p2 ~index:250 = expected)

let test_seed_changes_draws () =
  let p1 = Faults.plan (mixed_spec ~seed:1 ()) in
  let p2 = Faults.plan (mixed_spec ~seed:2 ()) in
  let differs = ref false in
  for i = 0 to 199 do
    if Faults.fault_at p1 ~index:i <> Faults.fault_at p2 ~index:i then
      differs := true
  done;
  check_true "different seeds give different plans" !differs

let test_null_plan () =
  let plan = Faults.plan Faults.none in
  check_true "null plan is null" (Faults.is_null plan);
  for i = 0 to 99 do
    check_true "null plan never fires" (Faults.fault_at plan ~index:i = None)
  done;
  check_false "mixed plan is not null" (Faults.is_null (Faults.plan (mixed_spec ())))

let board_pair inst =
  let f0 = Common.biased_start inst in
  let prev = Bulletin_board.post inst ~time:0. f0 in
  let f1 = Flow.uniform inst in
  (prev, f1)

let test_board_partial_mixes_ages () =
  let inst = Common.braess () in
  let prev, f1 = board_pair inst in
  let plan = Faults.plan (Faults.make ~partial:1. ~partial_fraction:0.5 ~seed:3 ()) in
  let fault = Faults.fault_at plan ~index:0 in
  check_true "partial plan fires"
    (match fault with Some (Faults.Partial _) -> true | _ -> false);
  let board =
    Faults.board plan ~index:0 fault inst ~time:1. ~prev:(Some prev) f1
  in
  let fresh = Bulletin_board.post inst ~time:1. f1 in
  let stale = prev.Bulletin_board.edge_latencies in
  let new_ = fresh.Bulletin_board.edge_latencies in
  let got = board.Bulletin_board.edge_latencies in
  Array.iteri
    (fun e v ->
      check_true "each edge latency is either the stale or the fresh one"
        (v = stale.(e) || v = new_.(e)))
    got;
  (* Path latencies are recomputed from the mixed edge values. *)
  let expect =
    Bulletin_board.post ~edge_latencies:got inst ~time:1. f1
  in
  Alcotest.(check (array (float 1e-12)))
    "path latencies consistent with mixed edges"
    expect.Bulletin_board.path_latencies
    board.Bulletin_board.path_latencies

let test_board_noise_perturbs () =
  let inst = Common.braess () in
  let prev, f1 = board_pair inst in
  let plan = Faults.plan (Faults.make ~noise:1. ~noise_sigma:0.2 ~seed:5 ()) in
  let fault = Faults.fault_at plan ~index:0 in
  let board =
    Faults.board plan ~index:0 fault inst ~time:1. ~prev:(Some prev) f1
  in
  let clean =
    (Bulletin_board.post inst ~time:1. f1).Bulletin_board.edge_latencies
  in
  let noisy = board.Bulletin_board.edge_latencies in
  let perturbed = ref false in
  Array.iteri
    (fun e v ->
      check_true "noise keeps latencies finite and non-negative"
        (Float.is_finite v && v >= 0.);
      if clean.(e) > 0. && v <> clean.(e) then perturbed := true)
    noisy;
  check_true "at least one positive latency perturbed" !perturbed;
  (* Multiplicative: zero latencies stay exactly zero. *)
  Array.iteri
    (fun e v -> if clean.(e) = 0. then check_close "zeros preserved" 0. v)
    noisy

let test_board_deterministic () =
  let inst = Common.braess () in
  let prev, f1 = board_pair inst in
  let plan = Faults.plan (mixed_spec ()) in
  let latencies index =
    let fault = Faults.fault_at plan ~index in
    (Faults.board plan ~index fault inst ~time:1. ~prev:(Some prev) f1)
      .Bulletin_board.edge_latencies
  in
  Alcotest.(check (array (float 0.)))
    "faulted board is a pure function of (seed, index)" (latencies 7)
    (latencies 7)

(* --- Topology outages (DESIGN.md §14) --- *)

let outage_spec ?(rate = 0.3) ?(mttr = 3.) ?(outage_seed = 11) () =
  Faults.make ~outage:rate ~outage_mttr:mttr ~outage_seed ()

let test_outage_spec_validation () =
  check_raises_invalid "negative outage rate" (fun () ->
      ignore (Faults.make ~outage:(-0.1) ()));
  check_raises_invalid "outage rate above one" (fun () ->
      ignore (Faults.make ~outage:1.5 ()));
  check_raises_invalid "mttr below one" (fun () ->
      ignore (Faults.make ~outage:0.1 ~outage_mttr:0.5 ()));
  check_raises_invalid "non-finite mttr" (fun () ->
      ignore (Faults.make ~outage:0.1 ~outage_mttr:Float.infinity ()));
  (* The outage rate is a per-edge rate, not part of the board-fault
     probability budget. *)
  ignore (Faults.make ~drop:0.5 ~partial:0.5 ~outage:1. ());
  check_false "outage-only plan is not null"
    (Faults.is_null (Faults.plan (outage_spec ())));
  check_true "outage-only plan draws no board faults"
    (Faults.fault_at (Faults.plan (outage_spec ~rate:1. ())) ~index:0 = None)

let test_of_string_outage () =
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Error e -> Alcotest.failf "%S should parse, got %s" s e
      | Ok spec -> (
          match Faults.of_string (Faults.to_string spec) with
          | Error e -> Alcotest.failf "round trip of %S failed: %s" s e
          | Ok spec' ->
              check_true (Printf.sprintf "round trip of %S" s) (spec = spec')))
    [
      "outage=0.1";
      "outage=0.1:5";
      "outage=0.1:5:9";
      "drop=0.3,outage=0.05:4,seed=7";
    ];
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" s)
    [ "outage"; "outage=2"; "outage=0.1:0.5"; "outage=0.1:4:x"; "outage=" ];
  (* Unknown keys name the valid ones. *)
  match Faults.of_string "outrage=0.1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error e ->
      check_true "error lists the valid keys"
        (Str_contains.contains e "valid keys"
        && Str_contains.contains e "outage")

let test_outage_chain_pure () =
  let p1 = Faults.plan (outage_spec ()) in
  let p2 = Faults.plan (outage_spec ()) in
  (* Out-of-order and repeated queries agree: no hidden state. *)
  let probes = [ (40, 3); (0, 0); (40, 3); (7, 1); (39, 2); (40, 0) ] in
  List.iter
    (fun (phase, edge) ->
      check_true "same (seed, phase, edge) gives the same state"
        (Faults.edge_down p1 ~edge ~phase = Faults.edge_down p2 ~edge ~phase))
    probes;
  (* A different outage seed produces a different chain. *)
  let p3 = Faults.plan (outage_spec ~outage_seed:12 ()) in
  let differs = ref false in
  for phase = 0 to 63 do
    for edge = 0 to 3 do
      if Faults.edge_down p1 ~edge ~phase <> Faults.edge_down p3 ~edge ~phase
      then differs := true
    done
  done;
  check_true "different outage seeds give different chains" !differs;
  (* Both transitions occur at this rate/mttr. *)
  let saw_down = ref false and saw_up = ref false in
  for phase = 1 to 63 do
    let now = Faults.edge_down p1 ~edge:0 ~phase in
    let before = Faults.edge_down p1 ~edge:0 ~phase:(phase - 1) in
    if now && not before then saw_down := true;
    if before && not now then saw_up := true
  done;
  check_true "edge fails at least once" !saw_down;
  check_true "edge repairs at least once" !saw_up

let test_outage_state_matches_oracle () =
  let plan = Faults.plan (outage_spec ()) in
  let edges = 5 in
  (* The incremental state stepped from phase 0 tracks the pure oracle
     phase by phase... *)
  (match Faults.outage_start plan ~edges ~phase:0 with
  | None -> Alcotest.fail "outage plan has no state"
  | Some st ->
      for phase = 0 to 49 do
        Faults.outage_step st ~phase ~on_change:(fun ~edge:_ ~down:_ -> ());
        let down =
          match Faults.outage_down st with
          | None -> Array.make edges false
          | Some d -> Array.copy d
        in
        for edge = 0 to edges - 1 do
          check_true
            (Printf.sprintf "state matches edge_down at phase %d edge %d"
               phase edge)
            (down.(edge) = Faults.edge_down plan ~edge ~phase)
        done
      done);
  (* ...and a state rebuilt mid-chain (what resume does) agrees with
     the one stepped from the beginning. *)
  match Faults.outage_start plan ~edges ~phase:25 with
  | None -> Alcotest.fail "outage plan has no state"
  | Some st ->
      Faults.outage_step st ~phase:25 ~on_change:(fun ~edge:_ ~down:_ -> ());
      for edge = 0 to edges - 1 do
        let resumed =
          match Faults.outage_down st with
          | None -> false
          | Some d -> d.(edge)
        in
        check_true "resumed state agrees with the oracle"
          (resumed = Faults.edge_down plan ~edge ~phase:25)
      done

(* Purity property: the state of any (seed, phase, edge) is the same
   whatever instance of the plan answers, in whatever order it is
   asked — and the incremental state agrees with the oracle wherever
   it is started. *)
let prop_outage_purity =
  qcheck ~count:100 "qcheck: outage draws are pure in (seed, phase, edge)"
    QCheck2.Gen.(
      tup4 (int_range 0 1000) (int_range 0 40) (int_range 0 9)
        (int_range 1 8))
    (fun (outage_seed, phase, edge, mttr) ->
      let spec () =
        Faults.make ~outage:0.3 ~outage_mttr:(float_of_int mttr) ~outage_seed
          ()
      in
      let p1 = Faults.plan (spec ()) in
      let p2 = Faults.plan (spec ()) in
      (* Warm p2 with unrelated queries first: they must not matter. *)
      ignore (Faults.edge_down p2 ~edge:((edge + 5) mod 10) ~phase:(phase + 3));
      ignore (Faults.edge_down p2 ~edge ~phase:(phase / 2));
      let oracle = Faults.edge_down p1 ~edge ~phase in
      let incremental =
        match Faults.outage_start p1 ~edges:10 ~phase with
        | None -> false
        | Some st ->
            Faults.outage_step st ~phase ~on_change:(fun ~edge:_ ~down:_ -> ());
            (match Faults.outage_down st with
            | None -> false
            | Some d -> d.(edge))
      in
      Faults.edge_down p2 ~edge ~phase = oracle && incremental = oracle)

let test_outage_zero_rate_no_state () =
  let plan = Faults.plan (Faults.make ~drop:0.2 ~seed:3 ()) in
  check_true "zero-rate plan has no outage state"
    (Faults.outage_start plan ~edges:8 ~phase:0 = None);
  for phase = 0 to 19 do
    check_false "zero-rate oracle is all-alive"
      (Faults.edge_down plan ~edge:0 ~phase)
  done

let test_dead_helpers () =
  let inst = Common.braess () in
  let m = Staleroute_graph.Digraph.edge_count (Instance.graph inst) in
  let down = Array.make m false in
  (* Kill the first edge of path 0 and check the path predicate. *)
  let edges0 = Instance.path_edges inst 0 in
  down.(edges0.(0)) <- true;
  check_true "path over a dead edge is dead" (Faults.path_dead inst ~down 0);
  let alive_path =
    let n = Instance.path_count inst in
    let rec find p =
      if p >= n then None
      else if Faults.path_dead inst ~down p then find (p + 1)
      else Some p
    in
    find 0
  in
  (match alive_path with
  | None -> Alcotest.fail "braess should keep an alive path"
  | Some p -> check_false "disjoint path stays alive"
      (Faults.path_dead inst ~down p));
  let f = Flow.uniform inst in
  let posted = Faults.dead_edge_latencies inst ~down f in
  check_close "dead edge posted at dead_latency" Faults.dead_latency
    posted.(edges0.(0));
  let clean = Flow.edge_latencies inst (Flow.edge_flows inst f) in
  Array.iteri
    (fun e v -> if not down.(e) then check_close "alive edges unchanged"
        clean.(e) v)
    posted;
  let pricing = Faults.alive_latencies ~down clean in
  check_true "pricing weight of a dead edge is infinite"
    (pricing.(edges0.(0)) = Float.infinity);
  Array.iteri
    (fun e v ->
      if not down.(e) then
        check_close "alive pricing weights unchanged" clean.(e) v)
    pricing

(* --- Zero-rate outage is bitwise inert: RK4 phases, synchronous rounds ---

   A plan whose outage rate is zero must take exactly the clean code
   path, whatever its mttr/seed parameters say: traces and final flows
   byte-identical to a run with no fault plan at all. *)

module Probe = Staleroute_obs.Probe
module Trace_export = Staleroute_obs.Trace_export

let zero_rate_plan () =
  (* Non-default mttr and outage seed: rate zero must make them inert. *)
  Faults.plan (Faults.make ~outage:0. ~outage_mttr:7. ~outage_seed:99 ())

let bits_equal a b =
  Array.for_all2
    (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
    (Staleroute_util.Vec.to_array a)
    (Staleroute_util.Vec.to_array b)

let smooth_config inst staleness =
  {
    Driver.policy = Policy.uniform_linear inst;
    staleness;
    phases = 8;
    steps_per_phase = 6;
    scheme = Integrator.Rk4;
  }

let test_zero_rate_inert_driver () =
  let inst = Common.two_link ~beta:4. in
  List.iter
    (fun staleness ->
      let run faults =
        let buf = Probe.Memory.create () in
        let r =
          Driver.run ?faults
            ~probe:(Probe.Memory.probe buf)
            inst
            (smooth_config inst staleness)
            ~init:(Common.biased_start inst)
        in
        (Trace_export.events_to_string (Probe.Memory.events buf), r)
      in
      let clean_trace, clean = run None in
      let zero_trace, zero = run (Some (zero_rate_plan ())) in
      check_true "trace byte-identical" (String.equal clean_trace zero_trace);
      check_true "final flow bit-identical"
        (bits_equal clean.Driver.final_flow zero.Driver.final_flow))
    [ Driver.Stale 0.25; Driver.Fresh ]

(* Synchronous rounds: Euler steps of h = 1, three per update. *)
let test_zero_rate_inert_discrete () =
  let inst = Common.two_link ~beta:4. in
  let config =
    rounds_config ~per_update:3 (Policy.uniform_linear inst) ~updates:8
  in
  let run faults =
    let buf = Probe.Memory.create () in
    let r =
      Driver.run ?faults
        ~probe:(Probe.Memory.probe buf)
        inst config
        ~init:(Common.biased_start inst)
    in
    (Trace_export.events_to_string (Probe.Memory.events buf), r)
  in
  let clean_trace, clean = run None in
  let zero_trace, zero = run (Some (zero_rate_plan ())) in
  check_true "trace byte-identical" (String.equal clean_trace zero_trace);
  check_true "final flow bit-identical"
    (bits_equal clean.Driver.final_flow zero.Driver.final_flow)

(* Live outage runs are as reproducible as clean ones. *)
let test_outage_run_deterministic () =
  let inst = Common.braess () in
  let faults () =
    Faults.plan
      (Faults.make ~drop:0.2 ~outage:0.2 ~outage_mttr:2. ~outage_seed:7
         ~seed:13 ())
  in
  let run () =
    let buf = Probe.Memory.create () in
    let r =
      Driver.run
        ~faults:(faults ())
        ~probe:(Probe.Memory.probe buf)
        ~guard:Guard.ignore_ inst
        (smooth_config inst (Driver.Stale 0.25))
        ~init:(Common.biased_start inst)
    in
    (Trace_export.events_to_string (Probe.Memory.events buf), r)
  in
  let t1, r1 = run () in
  let t2, r2 = run () in
  check_true "same-seed outage traces byte-identical" (String.equal t1 t2);
  check_true "same-seed final flows bit-identical"
    (bits_equal r1.Driver.final_flow r2.Driver.final_flow);
  check_true "outage actually fired"
    (Str_contains.contains t1 "edge_down")

(* Every fault kind fires, at pinned counts, on 1 000 draws of one
   mixed plan, and a driver run under that plan injects a pinned number
   of faults into a trace that replays byte for byte. *)
let test_every_kind_fires () =
  let spec =
    Faults.make ~drop:0.25 ~delay:0.15 ~partial:0.15 ~noise:0.15 ~seed:42 ()
  in
  let plan = Faults.plan spec in
  let draws = List.init 1000 (fun i -> Faults.fault_at plan ~index:i) in
  let count p = List.length (List.filter p draws) in
  check_int "drops" 267 (count (fun f -> f = Some Faults.Drop));
  check_int "delays"
    156 (count (function Some (Faults.Delay _) -> true | _ -> false));
  check_int "partials"
    161 (count (function Some (Faults.Partial _) -> true | _ -> false));
  check_int "noises"
    139 (count (function Some (Faults.Noise _) -> true | _ -> false));
  let inst = Common.two_link ~beta:4. in
  let config =
    { (smooth_config inst (Driver.Stale 0.25)) with
      Driver.phases = 12;
      steps_per_phase = 8 }
  in
  let run () =
    let buf = Probe.Memory.create () in
    ignore
      (Driver.run ~faults:(Faults.plan spec)
         ~probe:(Probe.Memory.probe buf)
         inst config ~init:(Common.biased_start inst));
    buf
  in
  let a = run () and b = run () in
  check_int "faults injected" 7
    (Probe.Memory.count a (function
      | Probe.Fault_injected _ -> true
      | _ -> false));
  check_true "same-seed faulted traces byte-identical"
    (String.equal
       (Trace_export.events_to_string (Probe.Memory.events a))
       (Trace_export.events_to_string (Probe.Memory.events b)))

(* Dropped re-posts stretch the effective update period by about
   1/(1-p): at p = 0.5, 400 phases post 186 boards, and the kernel is
   rebuilt only on a post that landed. *)
let test_drop_inflates_period () =
  let module Metrics = Staleroute_obs.Metrics in
  let inst = Common.two_link ~beta:4. in
  let phases = 400 in
  let metrics = Metrics.create () in
  ignore
    (Driver.run ~metrics
       ~faults:(Faults.plan (Faults.make ~drop:0.5 ~seed:42 ()))
       inst
       { (smooth_config inst (Driver.Stale 0.25)) with
         Driver.phases;
         steps_per_phase = 8 }
       ~init:(Common.biased_start inst));
  let posts = Metrics.count (Metrics.counter metrics "board_reposts") in
  check_int "posts" 186 posts;
  check_int "kernel rebuilt once per post" posts
    (Metrics.count (Metrics.counter metrics "kernel_rebuilds"));
  let period = float_of_int phases /. float_of_int posts in
  check_close ~eps:5e-4 "effective period / T" 2.151 period;
  check_true "period within [1.6, 2.4] T" (period >= 1.6 && period <= 2.4)

let suite =
  [
    case "spec validation" test_make_validates;
    case "of_string round trip" test_of_string_round_trip;
    case "of_string rejects" test_of_string_rejects;
    case "fault_at is pure" test_fault_at_is_pure;
    case "seed changes draws" test_seed_changes_draws;
    case "null plan" test_null_plan;
    case "partial board mixes ages" test_board_partial_mixes_ages;
    case "noise board perturbs" test_board_noise_perturbs;
    case "faulted board deterministic" test_board_deterministic;
    case "outage spec validation" test_outage_spec_validation;
    case "of_string outage" test_of_string_outage;
    case "outage chain pure" test_outage_chain_pure;
    case "outage state matches oracle" test_outage_state_matches_oracle;
    prop_outage_purity;
    case "zero-rate outage stateless" test_outage_zero_rate_no_state;
    case "dead-edge helpers" test_dead_helpers;
    case "zero-rate inert (driver)" test_zero_rate_inert_driver;
    case "zero-rate inert (discrete)" test_zero_rate_inert_discrete;
    case "outage run deterministic" test_outage_run_deterministic;
    case "every kind fires on 1000 draws" test_every_kind_fires;
    case "drop 0.5 inflates the period" test_drop_inflates_period;
  ]
