(* Checkpoint serialisation and driver resume: JSON round-trips must be
   bit-exact and a resumed run must replay the uninterrupted one. *)

open Helpers
open Staleroute_dynamics
module Common = Staleroute_experiments.Common
module Probe = Staleroute_obs.Probe
module Json = Staleroute_obs.Json
module Trace_export = Staleroute_obs.Trace_export

let inst () = Common.two_link ~beta:4.

let config phases =
  {
    Driver.policy = Policy.uniform_linear (inst ());
    staleness = Driver.Stale 0.25;
    phases;
    steps_per_phase = 6;
    scheme = Integrator.Rk4;
  }

(* Capture the first checkpoint a run emits, plus its event prefix. *)
let capture_checkpoint ?faults ~every phases =
  let inst = inst () in
  let buf = Probe.Memory.create () in
  let saved = ref None in
  let result =
    Driver.run
      ~probe:(Probe.Memory.probe buf)
      ?faults ~checkpoint_every:every
      ~on_checkpoint:(fun snap ->
        if !saved = None then
          saved :=
            Some
              {
                Checkpoint.fingerprint = "test/1";
                snapshot = snap;
                events = Array.copy (Probe.Memory.events buf);
              })
      inst (config phases)
      ~init:(Common.biased_start inst)
  in
  match !saved with
  | None -> Alcotest.fail "no checkpoint captured"
  | Some c -> (c, buf, result)

let test_json_round_trip () =
  let c, _, _ = capture_checkpoint ~every:3 8 in
  match Checkpoint.of_json (Checkpoint.to_json c) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok c' ->
      check_true "fingerprint" (c'.Checkpoint.fingerprint = c.Checkpoint.fingerprint);
      check_int "next_phase" c.Checkpoint.snapshot.Driver.next_phase
        c'.Checkpoint.snapshot.Driver.next_phase;
      check_true "flow bit-exact"
        (Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           (Staleroute_util.Vec.to_array c.Checkpoint.snapshot.Driver.flow)
           (Staleroute_util.Vec.to_array c'.Checkpoint.snapshot.Driver.flow));
      check_int "records preserved"
        (List.length c.Checkpoint.snapshot.Driver.records_so_far)
        (List.length c'.Checkpoint.snapshot.Driver.records_so_far);
      check_true "events preserved"
        (String.equal
           (Trace_export.events_to_string c.Checkpoint.events)
           (Trace_export.events_to_string c'.Checkpoint.events))

let test_json_round_trip_nan_flow () =
  (* A Repair-less crashed run can checkpoint a NaN flow; the encoding
     must still round-trip bit for bit. *)
  let c, _, _ = capture_checkpoint ~every:2 4 in
  let snap = c.Checkpoint.snapshot in
  let flow = Staleroute_util.Vec.copy snap.Driver.flow in
  Staleroute_util.Vec.set flow 0 Float.nan;
  Staleroute_util.Vec.set flow 1 Float.neg_infinity;
  let c = { c with Checkpoint.snapshot = { snap with Driver.flow } } in
  match Checkpoint.of_json (Checkpoint.to_json c) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok c' ->
      check_true "non-finite entries survive"
        (Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           (Staleroute_util.Vec.to_array flow)
           (Staleroute_util.Vec.to_array c'.Checkpoint.snapshot.Driver.flow))

let test_of_json_rejects_garbage () =
  List.iter
    (fun j ->
      match Checkpoint.of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted")
    [
      Json.Null;
      Json.Obj [ ("staleroute_checkpoint", Json.Int 999) ];
      Json.Obj [ ("fingerprint", Json.String "x") ];
    ]

let test_save_load () =
  let c, _, _ = capture_checkpoint ~every:3 8 in
  let path = Filename.temp_file "staleroute_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save ~path c;
      match Checkpoint.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok c' ->
          check_true "save/load round trip"
            (String.equal
               (Json.to_string (Checkpoint.to_json c))
               (Json.to_string (Checkpoint.to_json c'))))

let test_load_missing () =
  match Checkpoint.load ~path:"/nonexistent/ckpt.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file should fail"

(* Corruption detection: the payload digest must turn silent file
   damage into a one-line typed error. *)
let test_corruption_refused () =
  let c, _, _ = capture_checkpoint ~every:3 8 in
  let path = Filename.temp_file "staleroute_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save ~path c;
      let original = In_channel.with_open_bin path In_channel.input_all in
      check_true "digest serialised"
        (Str_contains.contains original "\"digest\":\"");
      let write s =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s)
      in
      let refuse label =
        match Checkpoint.load ~path with
        | Error e ->
            check_true (label ^ " error is one line")
              (not (String.contains e '\n'))
        | Ok _ -> Alcotest.fail (label ^ " accepted")
      in
      write "";
      refuse "empty file";
      write (String.sub original 0 (String.length original / 2));
      refuse "truncated file";
      (* A flipped digit inside the payload still parses as JSON — only
         the digest catches it. *)
      let key = "\"next_phase\":" in
      let pos =
        let n = String.length key and h = String.length original in
        let rec scan i =
          if i + n > h then Alcotest.fail "next_phase not serialised"
          else if String.sub original i n = key then i + n
          else scan (i + 1)
        in
        scan 0
      in
      let b = Bytes.of_string original in
      let d = Bytes.get b pos in
      check_true "flipping a digit" (d >= '0' && d <= '9');
      Bytes.set b pos (if d = '9' then '8' else Char.chr (Char.code d + 1));
      write (Bytes.to_string b);
      (match Checkpoint.load ~path with
      | Error e ->
          check_true "bit-flip error names the digest"
            (Str_contains.contains e "digest")
      | Ok _ -> Alcotest.fail "bit-flipped payload accepted");
      (* Stripping the digest field entirely is also refused. *)
      (match Checkpoint.of_json (Checkpoint.to_json c) with
      | Error e -> Alcotest.failf "pristine decode failed: %s" e
      | Ok _ -> ());
      match Checkpoint.to_json c with
      | Json.Obj fields -> (
          let stripped =
            Json.Obj
              (List.filter
                 (fun (k, _) -> not (String.equal k "digest"))
                 fields)
          in
          match Checkpoint.of_json stripped with
          | Error e ->
              check_true "missing digest refused"
                (Str_contains.contains e "digest")
          | Ok _ -> Alcotest.fail "digest-less checkpoint accepted")
      | _ -> Alcotest.fail "checkpoint encodes to an object")

let resume_replays ?faults () =
  let inst = inst () in
  let phases = 10 in
  let c, full_buf, full_result = capture_checkpoint ?faults ~every:4 phases in
  (* Resume from the serialised snapshot (through JSON, as routesim
     does), with the stored prefix re-emitted first. *)
  let snap =
    match Checkpoint.of_json (Checkpoint.to_json c) with
    | Ok c' -> c'.Checkpoint.snapshot
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  let buf = Probe.Memory.create () in
  let probe = Probe.Memory.probe buf in
  Array.iter (fun e -> Probe.emit probe e) c.Checkpoint.events;
  let resumed =
    Driver.run ~probe ?faults ~from:snap inst (config phases)
      ~init:(Common.biased_start inst)
  in
  check_true "trace byte-identical to uninterrupted run"
    (String.equal
       (Trace_export.events_to_string (Probe.Memory.events full_buf))
       (Trace_export.events_to_string (Probe.Memory.events buf)));
  check_true "final flow bit-identical"
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       (Staleroute_util.Vec.to_array full_result.Driver.final_flow)
       (Staleroute_util.Vec.to_array resumed.Driver.final_flow));
  check_int "all phase records present" phases
    (Array.length resumed.Driver.records)

let test_resume_replays () = resume_replays ()

let test_resume_replays_faulted () =
  resume_replays
    ~faults:
      (Faults.plan
         (Faults.make ~drop:0.3 ~partial:0.2 ~noise:0.2 ~seed:11 ()))
    ()

(* Resume across an outage boundary: four parallel links, edges failing
   and recovering on both sides of the snapshot, the stitched trace and
   the final flow identical to the uninterrupted run. *)
let test_resume_across_outage () =
  let inst = Common.parallel 4 in
  let config =
    {
      Driver.policy = Policy.uniform_linear inst;
      staleness = Driver.Stale 0.25;
      phases = 20;
      steps_per_phase = 8;
      scheme = Integrator.Rk4;
    }
  in
  let run ?from ?checkpoint_every ?on_checkpoint () =
    let buf = Probe.Memory.create () in
    let faults =
      Faults.plan
        (Faults.make ~drop:0.25 ~outage:0.2 ~outage_mttr:3. ~outage_seed:7
           ~seed:42 ())
    in
    let result =
      Driver.run
        ~probe:(Probe.Memory.probe buf)
        ~faults ~guard:Guard.ignore_ ?from ?checkpoint_every ?on_checkpoint
        inst config ~init:(Common.biased_start inst)
    in
    (Probe.Memory.events buf, result)
  in
  let full, full_result = run () in
  let count p = Array.fold_left (fun n e -> if p e then n + 1 else n) 0 in
  let is_down = function Probe.Edge_down _ -> true | _ -> false in
  let is_up = function Probe.Edge_up _ -> true | _ -> false in
  check_int "edge downs" 10 (count is_down full);
  check_int "edge ups" 9 (count is_up full);
  let saved = ref None in
  ignore
    (run ~checkpoint_every:7
       ~on_checkpoint:(fun snap -> if !saved = None then saved := Some snap)
       ());
  let snap =
    match !saved with
    | Some snap -> snap
    | None -> Alcotest.fail "no checkpoint captured"
  in
  let tail, resumed = run ~from:snap () in
  let prefix_len = Array.length full - Array.length tail in
  check_true "tail no longer than the full trace" (prefix_len >= 0);
  let prefix = Array.sub full 0 prefix_len in
  let has_edge_event evs = count (fun e -> is_down e || is_up e) evs > 0 in
  check_true "outages before the snapshot" (has_edge_event prefix);
  check_true "outages after the snapshot" (has_edge_event tail);
  check_true "stitched trace byte-identical"
    (String.equal
       (Trace_export.events_to_string full)
       (Trace_export.events_to_string (Array.append prefix tail)));
  check_true "final flow bit-identical"
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       (Staleroute_util.Vec.to_array full_result.Driver.final_flow)
       (Staleroute_util.Vec.to_array resumed.Driver.final_flow))

let test_resume_validates () =
  let inst = inst () in
  let c, _, _ = capture_checkpoint ~every:3 8 in
  let snap = c.Checkpoint.snapshot in
  check_raises_invalid "next_phase out of range" (fun () ->
      ignore
        (Driver.run
           ~from:{ snap with Driver.next_phase = 99 }
           inst (config 8)
           ~init:(Common.biased_start inst)));
  check_raises_invalid "records/next_phase mismatch" (fun () ->
      ignore
        (Driver.run
           ~from:{ snap with Driver.records_so_far = [] }
           inst (config 8)
           ~init:(Common.biased_start inst)))

(* --- Column generation: growth in checkpoints (DESIGN.md §11) --- *)

module Path_pool = Staleroute_wardrop.Path_pool
module Gen = Staleroute_graph.Gen
module Latency = Staleroute_latency.Latency

(* A small layered workload on which the shortest-path seed grows
   within a few phases. *)
let colgen_workload () =
  let rng = Staleroute_util.Rng.create ~seed:19 () in
  let st =
    Gen.layered_skips ~skip_prob:0.15 ~rng ~layers:6 ~width:6 ~edge_prob:0.5
  in
  let m = Staleroute_graph.Digraph.edge_count st.Gen.graph in
  let latencies =
    Array.init m (fun _ ->
        Latency.affine
          ~slope:(0.25 +. Staleroute_util.Rng.float rng 1.5)
          ~intercept:(Staleroute_util.Rng.float rng 0.3))
  in
  let pool =
    Path_pool.create ~graph:st.Gen.graph ~latencies
      ~commodities:
        [ Staleroute_wardrop.Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
      ()
  in
  let worst =
    Array.fold_left
      (fun acc l -> Float.max acc (Latency.eval l 1.))
      0. latencies
  in
  let policy =
    Policy.make ~sampling:Sampling.Uniform
      ~migration:(Migration.Linear { ell_max = 7. *. worst })
  in
  (pool, policy, st)

let colgen_config ?(t = 0.05) ?(steps = 6) policy phases =
  {
    Driver.policy;
    staleness = Driver.Stale t;
    phases;
    steps_per_phase = steps;
    scheme = Integrator.Rk4;
  }

let capture_colgen_checkpoint ?t ?steps ~every phases =
  let pool, policy, st = colgen_workload () in
  let inst = Path_pool.instance pool in
  let buf = Probe.Memory.create () in
  let saved = ref None in
  let result =
    Driver.run
      ~probe:(Probe.Memory.probe buf)
      ~colgen:pool ~checkpoint_every:every
      ~on_checkpoint:(fun snap ->
        if !saved = None then
          saved :=
            Some
              {
                Checkpoint.fingerprint = "test/colgen/1";
                snapshot = snap;
                events = Array.copy (Probe.Memory.events buf);
              })
      inst
      (colgen_config ?t ?steps policy phases)
      ~init:(Staleroute_wardrop.Flow.concentrated inst ~on:(fun _ -> 0))
  in
  match !saved with
  | None -> Alcotest.fail "no checkpoint captured"
  | Some c -> (c, buf, result, pool, policy, st)

let test_grown_round_trip () =
  let c, _, _, _, _, _ = capture_colgen_checkpoint ~every:8 16 in
  let grown = c.Checkpoint.snapshot.Driver.grown_paths in
  check_true "workload grew before the checkpoint" (grown <> []);
  match Checkpoint.of_json (Checkpoint.to_json c) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok c' ->
      check_true "grown paths preserved exactly"
        (c'.Checkpoint.snapshot.Driver.grown_paths = grown)

let test_grown_only_serialised_when_present () =
  (* A colgen-free checkpoint must serialise to the pre-colgen format:
     no "grown" keys, so existing byte-identity baselines hold. *)
  let c, _, _ = capture_checkpoint ~every:3 8 in
  match Checkpoint.to_json c with
  | Json.Obj fields ->
      check_false "no grown field" (List.mem_assoc "grown" fields);
      check_false "no grown_digest field"
        (List.mem_assoc "grown_digest" fields)
  | _ -> Alcotest.fail "checkpoint encodes to an object"

let test_grown_digest_tamper_refused () =
  let c, _, _, _, _, _ = capture_colgen_checkpoint ~every:8 16 in
  let s = Json.to_string (Checkpoint.to_json c) in
  let key = "\"grown_digest\":\"" in
  let pos =
    let n = String.length key and h = String.length s in
    let rec scan i =
      if i + n > h then Alcotest.fail "grown_digest not serialised"
      else if String.sub s i n = key then i + n
      else scan (i + 1)
    in
    scan 0
  in
  let b = Bytes.of_string s in
  Bytes.set b pos (if Bytes.get b pos = '0' then '1' else '0');
  match Json.of_string (Bytes.to_string b) with
  | Error e -> Alcotest.failf "tampered text no longer parses: %s" e
  | Ok j -> (
      match Checkpoint.of_json j with
      | Error e ->
          check_true "error names the digest" (Str_contains.contains e "digest")
      | Ok _ -> Alcotest.fail "tampered digest accepted")

let test_grown_edit_refused () =
  (* Consistent digest but edited edges: the replay validation in the
     driver is the backstop. *)
  let c, _, _, pool, policy, st = capture_colgen_checkpoint ~every:8 16 in
  let snap = c.Checkpoint.snapshot in
  let m = Staleroute_graph.Digraph.edge_count st.Gen.graph in
  let tampered =
    {
      snap with
      Driver.grown_paths =
        List.map
          (fun (ci, es) -> (ci, Array.map (fun e -> (e + 1) mod m) es))
          snap.Driver.grown_paths;
    }
  in
  let inst = Path_pool.instance pool in
  check_raises_invalid "edited grown paths refused" (fun () ->
      ignore
        (Driver.run ~colgen:pool ~from:tampered inst
           (colgen_config policy 16)
           ~init:(Staleroute_wardrop.Flow.concentrated inst ~on:(fun _ -> 0))));
  (* And grown paths without a pool cannot be resumed at all. *)
  check_raises_invalid "grown snapshot without colgen refused" (fun () ->
      ignore
        (Driver.run ~from:snap inst
           (colgen_config policy 16)
           ~init:(Staleroute_wardrop.Flow.concentrated inst ~on:(fun _ -> 0))))

(* E18's safe update period for this 6-layer workload (paths of at
   most 7 edges). *)
let safe_period policy inst =
  let alpha = Option.get (Policy.alpha policy)
  and beta = Staleroute_wardrop.Instance.beta inst in
  if beta = 0. || alpha = 0. then 1.
  else Float.min 1. (1. /. (4. *. 7. *. alpha *. beta))

let colgen_resume_replays ?t ?steps ~every ~growth phases =
  let c, full_buf, full_result, pool, policy, _ =
    capture_colgen_checkpoint ?t ?steps ~every phases
  in
  let snap =
    match Checkpoint.of_json (Checkpoint.to_json c) with
    | Ok c' -> c'.Checkpoint.snapshot
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  (* Resume needs a pool whose seed instance the run started from;
     rebuilding it from the same configuration is exactly what routesim
     does. *)
  let buf = Probe.Memory.create () in
  let inst = Path_pool.instance pool in
  let resumed =
    Driver.run
      ~probe:(Probe.Memory.probe buf)
      ~colgen:pool ~from:snap inst
      (colgen_config ?t ?steps policy phases)
      ~init:(Staleroute_wardrop.Flow.concentrated inst ~on:(fun _ -> 0))
  in
  let full = Probe.Memory.events full_buf in
  let tail = Probe.Memory.events buf in
  let prefix_len = Array.length full - Array.length tail in
  check_true "tail no longer than the full trace" (prefix_len >= 0);
  let stitched = Array.append (Array.sub full 0 prefix_len) tail in
  check_true "stitched trace byte-identical (growth included)"
    (String.equal
       (Trace_export.events_to_string full)
       (Trace_export.events_to_string stitched));
  check_int "growth events" growth
    (Array.fold_left
       (fun n e -> match e with Probe.Path_growth _ -> n + 1 | _ -> n)
       0 full);
  check_true "final flow bit-identical"
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       (Staleroute_util.Vec.to_array full_result.Driver.final_flow)
       (Staleroute_util.Vec.to_array resumed.Driver.final_flow));
  check_int "final instance dimension agrees"
    (Staleroute_wardrop.Instance.path_count full_result.Driver.final_instance)
    (Staleroute_wardrop.Instance.path_count resumed.Driver.final_instance)

let test_colgen_resume_replays () =
  colgen_resume_replays ~every:6 ~growth:6 16;
  let pool, policy, _ = colgen_workload () in
  colgen_resume_replays
    ~t:(safe_period policy (Path_pool.instance pool))
    ~steps:8 ~every:10 ~growth:17 40

let suite =
  [
    case "json round trip" test_json_round_trip;
    case "json round trip with NaN" test_json_round_trip_nan_flow;
    case "of_json rejects garbage" test_of_json_rejects_garbage;
    case "save/load" test_save_load;
    case "load missing file" test_load_missing;
    case "corrupt files refused" test_corruption_refused;
    case "resume replays the run" test_resume_replays;
    case "resume replays a faulted run" test_resume_replays_faulted;
    case "resume across an outage boundary" test_resume_across_outage;
    case "resume validates the snapshot" test_resume_validates;
    case "colgen: grown paths round trip" test_grown_round_trip;
    case "colgen: absent without growth" test_grown_only_serialised_when_present;
    case "colgen: tampered digest refused" test_grown_digest_tamper_refused;
    case "colgen: edited grown paths refused" test_grown_edit_refused;
    slow_case "colgen: resume replays growth" test_colgen_resume_replays;
  ]
