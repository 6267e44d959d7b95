open Helpers
open Staleroute_wardrop
open Staleroute_dynamics
open Staleroute_sim
open Staleroute_obs
module Common = Staleroute_experiments.Common
module Vec = Staleroute_util.Vec

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let driver_config ?(phases = 5) ?(steps = 8) ?(scheme = Integrator.Rk4) policy
    staleness =
  { Driver.policy; staleness; phases; steps_per_phase = steps; scheme }

let captured_run ?metrics inst config ~init =
  let buf = Probe.Memory.create () in
  let metrics = Option.value metrics ~default:Metrics.null in
  let result =
    Driver.run ~probe:(Probe.Memory.probe buf) ~metrics inst config ~init
  in
  (buf, result)

(* --- Probe basics --- *)

let test_null_probe () =
  check_false "null probe is disabled" (Probe.enabled Probe.null);
  (* Emitting on the null probe is a no-op, not an error. *)
  Probe.emit Probe.null (Probe.Board_repost { time = 0. })

let test_memory_buffer () =
  let buf = Probe.Memory.create () in
  let probe = Probe.Memory.probe buf in
  check_true "memory probe is enabled" (Probe.enabled probe);
  Probe.emit probe (Probe.Board_repost { time = 1. });
  Probe.emit probe (Probe.Kernel_rebuild { time = 2. });
  check_int "length" 2 (Probe.Memory.length buf);
  check_int "count reposts" 1
    (Probe.Memory.count buf (function
      | Probe.Board_repost _ -> true
      | _ -> false));
  (match (Probe.Memory.events buf).(0) with
  | Probe.Board_repost { time } -> check_close "emission order kept" 1. time
  | _ -> Alcotest.fail "expected the repost first");
  Probe.Memory.clear buf;
  check_int "cleared" 0 (Probe.Memory.length buf)

let test_tee () =
  let a = Probe.Memory.create () and b = Probe.Memory.create () in
  let tee = Probe.tee (Probe.Memory.probe a) (Probe.Memory.probe b) in
  check_true "tee of enabled probes is enabled" (Probe.enabled tee);
  Probe.emit tee (Probe.Board_repost { time = 0. });
  check_int "left sees the event" 1 (Probe.Memory.length a);
  check_int "right sees the event" 1 (Probe.Memory.length b);
  let half = Probe.tee (Probe.Memory.probe a) Probe.null in
  Probe.emit half (Probe.Board_repost { time = 1. });
  check_int "tee with null collapses to the live side" 2
    (Probe.Memory.length a);
  check_false "tee of nulls is null" (Probe.enabled (Probe.tee Probe.null Probe.null))

(* --- JSON --- *)

let test_json_parse_accessors () =
  match Json.of_string "{\"a\":1,\"b\":[true,null,\"x\\n\"],\"c\":-2.5}" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v -> (
      check_int "int field" 1
        (Option.get (Option.bind (Json.member "a" v) Json.to_int));
      check_close "float field" (-2.5)
        (Option.get (Option.bind (Json.member "c" v) Json.to_float));
      match Json.member "b" v with
      | Some (Json.List [ Json.Bool true; Json.Null; Json.String s ]) ->
          Alcotest.check Alcotest.string "escape decoded" "x\n" s
      | _ -> Alcotest.fail "list field shape")

let test_json_rejects_garbage () =
  check_true "trailing garbage is an error"
    (Result.is_error (Json.of_string "{\"a\":1} extra"));
  check_true "unterminated string is an error"
    (Result.is_error (Json.of_string "\"abc"));
  check_true "bare word is an error" (Result.is_error (Json.of_string "bogus"))

let test_json_nonfinite () =
  Alcotest.check Alcotest.string "nan token" "nan" (Json.float_repr Float.nan);
  Alcotest.check Alcotest.string "inf token" "inf"
    (Json.float_repr Float.infinity);
  match Json.of_string "[nan,inf,-inf]" with
  | Ok (Json.List [ Json.Float a; Json.Float b; Json.Float c ]) ->
      check_true "nan parses" (Float.is_nan a);
      check_close "inf parses" Float.infinity b;
      check_close "-inf parses" Float.neg_infinity c
  | _ -> Alcotest.fail "non-finite literals should parse"

let prop_float_repr_roundtrips =
  qcheck "qcheck: float_repr round-trips bit-exactly"
    QCheck2.Gen.(
      oneof
        [
          float;
          float_range (-1e6) 1e6;
          map (fun x -> x *. 1e-40) (float_range (-1.) 1.);
        ])
    (fun x ->
      match Result.to_option (Json.of_string (Json.float_repr x)) with
      | Some v -> (
          match Json.to_float v with
          | Some y ->
              Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
              || (Float.is_nan x && Float.is_nan y)
          | None -> false)
      | None -> false)

(* --- Trace export --- *)

let every_event_kind =
  [|
    Probe.Phase_start { index = 0; time = 0.; potential = 0.81 };
    Probe.Phase_end
      {
        index = 0;
        time = 0.5;
        potential = 0.3;
        virtual_gain = -0.1;
        delta_phi = -0.51;
      };
    Probe.Phase_end
      {
        index = 1;
        time = 1.;
        potential = 0.2;
        virtual_gain = Float.nan;
        delta_phi = -0.1;
      };
    Probe.Board_repost { time = 1.5 };
    Probe.Kernel_rebuild { time = 1.5 };
    Probe.Step_batch { time = 1.5; scheme = "rk4"; steps = 20; tau = 0.5 };
    Probe.Agent_wake
      { time = 2.25; agent = 17; from_path = 0; to_path = 1; migrated = true };
    Probe.Path_growth
      {
        time = 2.5;
        index = 2;
        commodity = 1;
        cost = 0.75;
        incumbent = 0.9;
        path_count = 12;
      };
    Probe.Fault_injected { time = 2.75; index = 2; kind = "noise"; arg = 0.05 };
    Probe.Edge_down { time = 2.75; index = 2; edge = 7 };
    Probe.Edge_up { time = 2.8; index = 3; edge = 7 };
    Probe.Guard_trip { time = 2.8; index = 2; action = "repair"; worst = 1e-9 };
    Probe.Note { time = 3.; name = "phi gap"; value = 1e-6 };
  |]

let test_jsonl_roundtrip () =
  let text = Trace_export.events_to_string every_event_kind in
  match Trace_export.events_of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok events ->
      check_int "event count preserved" (Array.length every_event_kind)
        (List.length events);
      List.iteri
        (fun i ev ->
          (* [compare] treats nan = nan, unlike [=]. *)
          check_true
            (Printf.sprintf "event %d round-trips" i)
            (compare every_event_kind.(i) ev = 0))
        events

let test_jsonl_error_carries_line () =
  let text = "{\"ev\":\"board_repost\",\"time\":0}\nnot json\n" in
  match Trace_export.events_of_string text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> check_true "error names line 2" (contains e "line 2")

let test_jsonl_tag_first () =
  Array.iter
    (fun ev ->
      let line = Json.to_string (Trace_export.event_to_json ev) in
      check_true "ev tag leads the object"
        (String.length line > 6 && String.sub line 0 6 = "{\"ev\":"))
    every_event_kind

(* --- Metrics --- *)

let test_metrics_instruments () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter accumulates" 5 (Metrics.count c);
  check_int "same name, same instrument" 5
    (Metrics.count (Metrics.counter m "c"));
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  check_close "gauge holds last value" 2.5 (Metrics.value g);
  let h = Metrics.histogram m "h" in
  for i = 1 to 40 do
    Metrics.observe h (float_of_int i)
  done;
  check_int "histogram keeps all samples" 40
    (Array.length (Metrics.samples h));
  check_true "live histogram is enabled" (Metrics.enabled_histogram h)

let test_null_metrics_inert () =
  check_false "null registry disabled" (Metrics.enabled Metrics.null);
  let c = Metrics.counter Metrics.null "c" in
  Metrics.incr ~by:100 c;
  check_int "null counter stays 0" 0 (Metrics.count c);
  let h = Metrics.histogram Metrics.null "h" in
  check_false "null histogram is disabled" (Metrics.enabled_histogram h);
  Metrics.observe h 1.;
  check_int "null histogram stays empty" 0 (Array.length (Metrics.samples h));
  check_int "null snapshot is empty" 0
    (List.length (Metrics.snapshot Metrics.null))

let test_snapshot_sorted_and_diff () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "zeta");
  Metrics.incr ~by:1 (Metrics.counter m "alpha");
  Metrics.set (Metrics.gauge m "mid") 7.;
  let before = Metrics.snapshot m in
  (match List.map fst before with
  | [ "alpha"; "mid"; "zeta" ] -> ()
  | names -> Alcotest.failf "unsorted snapshot: %s" (String.concat "," names));
  Metrics.incr ~by:10 (Metrics.counter m "zeta");
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  (match List.assoc "zeta" d with
  | Metrics.Counter_v n -> check_int "diff subtracts counters" 10 n
  | _ -> Alcotest.fail "zeta should be a counter");
  match List.assoc "mid" d with
  | Metrics.Gauge_v x -> check_close "diff keeps gauges" 7. x
  | _ -> Alcotest.fail "mid should be a gauge"

(* --- Board revision / kernel currency (satellite a) --- *)

let test_board_revision_increases () =
  let inst = Common.braess () in
  let f = Flow.uniform inst in
  let before = Bulletin_board.posts () in
  let b1 = Bulletin_board.post inst ~time:0. f in
  let b2 = Bulletin_board.post inst ~time:1. f in
  check_true "revisions strictly increase"
    (Bulletin_board.revision b2 > Bulletin_board.revision b1);
  check_true "process post count advanced by 2"
    (Bulletin_board.posts () >= before + 2)

let test_kernel_is_current () =
  let inst = Common.braess () in
  let policy = Policy.uniform_linear inst in
  let f = Flow.uniform inst in
  let b1 = Bulletin_board.post inst ~time:0. f in
  let kernel = Rate_kernel.build inst policy ~board:b1 in
  check_true "kernel current on its own board"
    (Rate_kernel.is_current kernel ~board:b1);
  let b2 = Bulletin_board.post inst ~time:1. f in
  check_false "re-post invalidates the kernel"
    (Rate_kernel.is_current kernel ~board:b2)

(* --- Driver instrumentation ground truth --- *)

let test_stale_event_counts () =
  let inst = Common.two_link ~beta:4. in
  let phases = 6 and steps = 7 in
  let config =
    driver_config ~phases ~steps (Policy.uniform_linear inst)
      (Driver.Stale 0.25)
  in
  let metrics = Metrics.create () in
  let buf, _ =
    captured_run ~metrics inst config ~init:(Common.biased_start inst)
  in
  let count p = Probe.Memory.count buf p in
  check_int "stale reposts = phases" phases
    (count (function Probe.Board_repost _ -> true | _ -> false));
  check_int "stale rebuilds = phases" phases
    (count (function Probe.Kernel_rebuild _ -> true | _ -> false));
  check_int "one step batch per phase" phases
    (count (function Probe.Step_batch _ -> true | _ -> false));
  check_int "phase starts" phases
    (count (function Probe.Phase_start _ -> true | _ -> false));
  check_int "phase ends" phases
    (count (function Probe.Phase_end _ -> true | _ -> false));
  check_int "rebuild counter agrees" phases
    (Metrics.count (Metrics.counter metrics "kernel_rebuilds"));
  check_int "rk4 derivative evals = 4 * steps * phases" (4 * steps * phases)
    (Metrics.count (Metrics.counter metrics "derivative_evals"))

let test_fresh_event_counts () =
  let inst = Common.braess () in
  let phases = 3 and steps = 5 in
  let config =
    driver_config ~phases ~steps ~scheme:Integrator.Euler
      (Policy.uniform_linear inst) Driver.Fresh
  in
  let buf, _ = captured_run inst config ~init:(Flow.uniform inst) in
  let count p = Probe.Memory.count buf p in
  check_int "fresh rebuilds = phases * steps" (phases * steps)
    (count (function Probe.Kernel_rebuild _ -> true | _ -> false));
  check_int "fresh step batches = phases * steps" (phases * steps)
    (count (function Probe.Step_batch _ -> true | _ -> false))

let test_phase_events_match_records () =
  let inst = Common.two_link ~beta:4. in
  let config =
    driver_config ~phases:8 (Policy.uniform_linear inst) (Driver.Stale 0.2)
  in
  let buf, result =
    captured_run inst config ~init:(Common.biased_start inst)
  in
  let starts =
    Array.of_list
      (List.filter_map
         (function
           | Probe.Phase_start { potential; _ } -> Some potential | _ -> None)
         (Array.to_list (Probe.Memory.events buf)))
  in
  check_int "one phase_start per record" (Array.length result.Driver.records)
    (Array.length starts);
  Array.iteri
    (fun i (r : Driver.phase_record) ->
      check_close ~eps:1e-12
        (Printf.sprintf "phase %d phi" i)
        r.Driver.start_potential starts.(i))
    result.Driver.records;
  Array.to_list (Probe.Memory.events buf)
  |> List.filter_map (function
       | Probe.Phase_end { delta_phi; _ } -> Some delta_phi
       | _ -> None)
  |> List.iteri (fun i dphi ->
         check_close ~eps:1e-12
           (Printf.sprintf "phase %d delta_phi" i)
           result.Driver.records.(i).Driver.delta_phi dphi)

let test_trace_byte_identical () =
  let inst = Common.two_link ~beta:3. in
  let config =
    driver_config ~phases:5 (Policy.replicator inst) (Driver.Stale 0.3)
  in
  let init = Common.biased_start inst in
  let trace () =
    let buf, _ = captured_run inst config ~init in
    Trace_export.events_to_string (Probe.Memory.events buf)
  in
  Alcotest.check Alcotest.string "same-config traces identical" (trace ())
    (trace ())

(* --- Synchronous-round / Simulator instrumentation --- *)

let test_discrete_events () =
  let inst = Common.braess () in
  let updates = 3 and per_update = 3 in
  let config =
    rounds_config ~per_update (Policy.uniform_linear inst) ~updates
  in
  let buf = Probe.Memory.create () in
  let metrics = Metrics.create () in
  ignore
    (Driver.run ~probe:(Probe.Memory.probe buf) ~metrics inst config
       ~init:(Flow.uniform inst));
  let count pred = Probe.Memory.count buf pred in
  check_int "one phase per update" updates
    (count (function Probe.Phase_start _ -> true | _ -> false));
  check_int "one board post per update" updates
    (count (function Probe.Board_repost _ -> true | _ -> false));
  check_int "one step batch per update" updates
    (count (function
      | Probe.Step_batch { scheme = "euler"; steps; tau; _ } ->
          steps = per_update && tau = float_of_int per_update
      | _ -> false));
  check_int "one derivative evaluation per round" (updates * per_update)
    (Metrics.count (Metrics.counter metrics "derivative_evals"))

let test_simulator_probe_counts () =
  let inst = Common.two_link ~beta:4. in
  let config =
    {
      Simulator.agents = 60;
      update_period = 0.5;
      horizon = 4.;
      policy = Policy.uniform_linear inst;
      record_every = 1.;
      info_mode = Simulator.Synchronized;
    }
  in
  let buf = Probe.Memory.create () in
  let metrics = Metrics.create () in
  let result =
    Simulator.run ~probe:(Probe.Memory.probe buf) ~metrics inst config
      ~rng:(rng ()) ~init:(Flow.uniform inst)
  in
  let wakes =
    Probe.Memory.count buf (function Probe.Agent_wake _ -> true | _ -> false)
  in
  let migrated =
    Probe.Memory.count buf (function
      | Probe.Agent_wake { migrated; _ } -> migrated
      | _ -> false)
  in
  check_int "one wake event per activation" result.Simulator.activations wakes;
  check_int "migrated wakes = migrations" result.Simulator.migrations migrated;
  check_int "activations counter" result.Simulator.activations
    (Metrics.count (Metrics.counter metrics "activations"));
  check_close "acceptance gauge"
    (float_of_int result.Simulator.migrations
    /. float_of_int result.Simulator.activations)
    (Metrics.value (Metrics.gauge metrics "migration_acceptance"))

(* --- Report --- *)

let test_report_counts_and_series () =
  let inst = Common.two_link ~beta:4. in
  let phases = 6 in
  let config =
    driver_config ~phases (Policy.uniform_linear inst) (Driver.Stale 0.25)
  in
  let buf, result =
    captured_run inst config ~init:(Common.biased_start inst)
  in
  let report = Report.of_events (Probe.Memory.events buf) in
  check_int "report phases" phases (Report.phases report);
  check_int "report reposts" phases (Report.board_reposts report);
  let series = Report.potential_series report in
  check_int "phase starts + final end" (phases + 1) (Array.length series);
  check_close ~eps:1e-12 "series starts at the initial potential"
    result.Driver.records.(0).Driver.start_potential
    (snd series.(0));
  check_close ~eps:1e-12 "series ends at the final potential"
    result.Driver.final_potential
    (snd series.(phases));
  check_int "delta series" phases (Array.length (Report.delta_phi_series report));
  let rendered = Report.to_string report in
  check_true "summary table present" (contains rendered "run summary");
  check_true "sparkline present" (contains rendered "potential gap")

let test_report_faults_section () =
  (* A faulted run (board faults + topology outages) must grow a
     per-kind faults table; the counts come off the recorded trace,
     which is what `trace_tool summary` reads. *)
  let inst = Common.two_link ~beta:4. in
  let config =
    driver_config ~phases:24 (Policy.uniform_linear inst) (Driver.Stale 0.25)
  in
  let faults =
    Faults.plan
      (Faults.make ~drop:0.3 ~outage:0.25 ~outage_mttr:2. ~outage_seed:5
         ~seed:42 ())
  in
  let buf = Probe.Memory.create () in
  let _ =
    Driver.run
      ~probe:(Probe.Memory.probe buf)
      ~faults ~guard:Guard.ignore_ inst config
      ~init:(Common.biased_start inst)
  in
  let report = Report.of_events (Probe.Memory.events buf) in
  check_true "edge failures recorded" (Report.edge_downs report > 0);
  check_true "edge repairs recorded" (Report.edge_ups report > 0);
  let kinds = Report.fault_kind_counts report in
  check_true "drop kind tallied" (List.mem_assoc "drop" kinds);
  check_int "edge down tally matches"
    (Report.edge_downs report)
    (List.assoc "edge down" kinds);
  check_int "edge up tally matches"
    (Report.edge_ups report)
    (List.assoc "edge up" kinds);
  let rendered = Report.to_string report in
  check_true "faults table present" (contains rendered "faults");
  check_true "edge down row present" (contains rendered "edge down");
  (* The same counts must come off a recorded trace — write the run's
     events to a JSONL file and rebuild the report the way
     `trace_tool summary` does. *)
  let path = Filename.temp_file "test_obs_faults" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Trace_export.write_trace oc (Probe.Memory.events buf);
      close_out oc;
      match Trace_reader.read_file path with
      | Error e -> Alcotest.failf "recorded trace unreadable: %s" e
      | Ok (_, events) ->
          let reread = Report.of_events (Array.of_list events) in
          check_int "recorded trace: edge downs survive the round-trip"
            (Report.edge_downs report)
            (Report.edge_downs reread);
          check_true "recorded trace: same faults table"
            (Report.fault_kind_counts reread
            = Report.fault_kind_counts report));
  (* Clean runs keep the old report shape. *)
  let clean_buf, _ =
    captured_run inst config ~init:(Common.biased_start inst)
  in
  let clean = Report.of_events (Probe.Memory.events clean_buf) in
  check_true "clean run has no faults section"
    (Report.fault_kind_counts clean = [])

let test_report_zero_phases () =
  (* A report over an empty (or phase-free) trace must render, not
     crash on empty series. *)
  let report = Report.of_events [||] in
  check_int "no phases" 0 (Report.phases report);
  check_int "no reposts" 0 (Report.board_reposts report);
  check_int "empty potential series" 0
    (Array.length (Report.potential_series report));
  check_int "empty delta series" 0
    (Array.length (Report.delta_phi_series report));
  let rendered = Report.to_string report in
  check_true "summary still renders" (contains rendered "run summary");
  let only_notes = Report.of_events [| Probe.Note { time = 0.; name = "x"; value = 1. } |] in
  check_true "note-only trace renders"
    (String.length (Report.to_string only_notes) > 0)

let prop_report_series_matches_potential_gap =
  qcheck ~count:25
    "qcheck: report potential series = trajectory potential gap"
    QCheck2.Gen.(
      triple (float_range 1. 6.) (int_range 1 6) (int_range 1 8))
    (fun (beta, phases, steps) ->
      let inst = Common.two_link ~beta in
      let config =
        driver_config ~phases ~steps (Policy.uniform_linear inst)
          (Driver.Stale 0.2)
      in
      let init = Common.biased_start inst in
      let buf, result = captured_run inst config ~init in
      let series =
        Report.potential_series (Report.of_events (Probe.Memory.events buf))
      in
      let gap = Convergence.potential_gap ~phi_star:0. result in
      Array.length series = Array.length gap
      && Array.for_all2
           (fun (t1, phi1) (t2, phi2) -> same_bits t1 t2 && same_bits phi1 phi2)
           series gap)

(* --- Disabled-probe hot path stays allocation-free --- *)

let test_disabled_probe_allocation_free () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let inst = Common.two_link ~beta:4. in
      let policy = Policy.uniform_linear inst in
      let board = Bulletin_board.post inst ~time:0. (Flow.uniform inst) in
      let kernel = Rate_kernel.build inst policy ~board in
      let pool = Vec.Pool.create ~dim:(Instance.path_count inst) in
      let measure steps =
        let f = Flow.uniform inst in
        let go steps =
          Integrator.integrate_phase_into ~probe:Probe.null Integrator.Euler
            inst ~pool
            ~deriv_into:(Rate_kernel.flow_derivative_into kernel)
            ~f ~tau:0.001 ~steps
        in
        go 1;
        let before = Gc.minor_words () in
        go steps;
        Gc.minor_words () -. before
      in
      check_close "0 minor words per euler step" 0.
        ((measure 1001 -. measure 1) /. 1000.)

let suite =
  [
    case "null probe" test_null_probe;
    case "memory buffer" test_memory_buffer;
    case "tee" test_tee;
    case "json parse + accessors" test_json_parse_accessors;
    case "json rejects garbage" test_json_rejects_garbage;
    case "json non-finite floats" test_json_nonfinite;
    prop_float_repr_roundtrips;
    case "jsonl round-trip (every kind)" test_jsonl_roundtrip;
    case "jsonl error carries line number" test_jsonl_error_carries_line;
    case "jsonl tag leads" test_jsonl_tag_first;
    case "metrics instruments" test_metrics_instruments;
    case "null metrics inert" test_null_metrics_inert;
    case "snapshot sorted + diff" test_snapshot_sorted_and_diff;
    case "board revision increases" test_board_revision_increases;
    case "kernel is_current" test_kernel_is_current;
    case "stale event counts" test_stale_event_counts;
    case "fresh event counts" test_fresh_event_counts;
    case "phase events match records" test_phase_events_match_records;
    case "trace byte-identical" test_trace_byte_identical;
    case "discrete events" test_discrete_events;
    case "simulator probe counts" test_simulator_probe_counts;
    case "report counts and series" test_report_counts_and_series;
    case "report faults section" test_report_faults_section;
    case "report renders zero phases" test_report_zero_phases;
    prop_report_series_matches_potential_gap;
    case "disabled probe allocation-free" test_disabled_probe_allocation_free;
  ]
