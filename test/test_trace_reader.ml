open Helpers
module Probe = Staleroute_obs.Probe
module Json = Staleroute_obs.Json
module Trace_export = Staleroute_obs.Trace_export
module Trace_reader = Staleroute_obs.Trace_reader

let with_tmp_trace content f =
  let path = Filename.temp_file "test_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc;
      f path)

let write_versioned events =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Json.to_string Trace_export.header_json);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Trace_export.events_to_string events);
  Buffer.contents buf

(* --- qcheck: write -> read round-trip over every constructor --- *)

let event_gen =
  let open QCheck2.Gen in
  let time = float_bound_inclusive 100. in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  (* Finite values plus the one non-finite case traces actually carry
     (a nan virtual gain on the first phase). *)
  let value = oneof [ float_bound_inclusive 10.; return Float.nan ] in
  oneof
    [
      (let* index = nat and* time = time and* potential = value in
       return (Probe.Phase_start { index; time; potential }));
      (let* index = nat
       and* time = time
       and* potential = value
       and* virtual_gain = value
       and* delta_phi = value in
       return
         (Probe.Phase_end { index; time; potential; virtual_gain; delta_phi }));
      (let* time = time in
       return (Probe.Board_repost { time }));
      (let* time = time in
       return (Probe.Kernel_rebuild { time }));
      (let* time = time
       and* scheme = name
       and* steps = int_range 1 1000
       and* tau = value in
       return (Probe.Step_batch { time; scheme; steps; tau }));
      (let* time = time
       and* agent = nat
       and* from_path = nat
       and* to_path = nat
       and* migrated = bool in
       return (Probe.Agent_wake { time; agent; from_path; to_path; migrated }));
      (let* time = time
       and* index = nat
       and* commodity = nat
       and* cost = value
       and* incumbent = value
       and* path_count = int_range 1 10000 in
       return
         (Probe.Path_growth
            { time; index; commodity; cost; incumbent; path_count }));
      (let* time = time and* index = nat and* kind = name and* arg = value in
       return (Probe.Fault_injected { time; index; kind; arg }));
      (let* time = time and* index = nat and* action = name and* worst = value in
       return (Probe.Guard_trip { time; index; action; worst }));
      (let* time = time and* name = name and* value = value in
       return (Probe.Note { time; name; value }));
    ]

let prop_write_read_roundtrip =
  qcheck "qcheck: write_trace then read_file round-trips"
    QCheck2.Gen.(list_size (int_range 0 20) event_gen)
    (fun events ->
      let arr = Array.of_list events in
      let path = Filename.temp_file "test_trace" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          Trace_export.write_trace oc arr;
          close_out oc;
          match Trace_reader.read_file path with
          | Error e -> QCheck2.Test.fail_reportf "read failed: %s" e
          | Ok (None, _) -> QCheck2.Test.fail_report "schema stamp lost"
          | Ok (Some { Trace_reader.schema }, back) ->
              (* [compare] treats nan = nan, unlike [=]. *)
              schema = Trace_export.schema_version
              && compare events back = 0))

(* --- Versioned and legacy flavours --- *)

let sample =
  [|
    Probe.Phase_start { index = 0; time = 0.; potential = 1.5 };
    Probe.Board_repost { time = 0.5 };
    Probe.Phase_end
      {
        index = 0;
        time = 1.;
        potential = 1.2;
        virtual_gain = -0.05;
        delta_phi = -0.3;
      };
  |]

let test_versioned_reads () =
  with_tmp_trace (write_versioned sample) (fun path ->
      match Trace_reader.read_file path with
      | Ok (Some { Trace_reader.schema }, events) ->
          check_int "schema stamp" Trace_export.schema_version schema;
          check_int "all events read" (Array.length sample)
            (List.length events)
      | Ok (None, _) -> Alcotest.fail "header not recognised"
      | Error e -> Alcotest.failf "read failed: %s" e)

let test_legacy_reads () =
  with_tmp_trace (Trace_export.events_to_string sample) (fun path ->
      match Trace_reader.read_file path with
      | Ok (None, events) ->
          check_int "all events read" (Array.length sample)
            (List.length events)
      | Ok (Some _, _) -> Alcotest.fail "phantom header"
      | Error e -> Alcotest.failf "read failed: %s" e)

let test_unsupported_schema_rejected () =
  with_tmp_trace "{\"ev\":\"trace_meta\",\"schema\":999}\n" (fun path ->
      match Trace_reader.read_file path with
      | Error e ->
          check_true "error names the schema" (Str_contains.contains e "999")
      | Ok _ -> Alcotest.fail "expected an unsupported-schema error")

let test_error_carries_line () =
  let text = write_versioned sample ^ "not json\n" in
  with_tmp_trace text (fun path ->
      match Trace_reader.read_file path with
      | Error e ->
          (* Header + 3 events, so the garbage sits on line 5. *)
          check_true "error names line 5" (Str_contains.contains e "line 5")
      | Ok _ -> Alcotest.fail "expected a parse error")

(* "round" is not an event kind of the trace schema: a trace that
   carries one is refused with the typed error, not a backtrace. *)
let test_round_event_refused () =
  let text =
    write_versioned sample ^ "{\"ev\":\"round\",\"index\":0,\"phi\":1.5}\n"
  in
  with_tmp_trace text (fun path ->
      match Trace_reader.read_file path with
      | Error e ->
          check_true "error names the kind"
            (Str_contains.contains e "unknown event kind \"round\"");
          check_true "error names line 5" (Str_contains.contains e "line 5")
      | Ok _ -> Alcotest.fail "expected an unknown-kind error")

let test_unreadable_file_is_error () =
  match Trace_reader.read_file "/nonexistent/trace.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing file"

let test_fold_is_incremental () =
  with_tmp_trace (write_versioned sample) (fun path ->
      match
        Trace_reader.fold_file path ~init:0 ~f:(fun acc _ -> acc + 1)
      with
      | Ok (_, n) -> check_int "fold visits every event" 3 n
      | Error e -> Alcotest.failf "fold failed: %s" e)

(* --- Diffing --- *)

let test_diff_identical () =
  with_tmp_trace (write_versioned sample) (fun a ->
      with_tmp_trace (write_versioned sample) (fun b ->
          match Trace_reader.diff_files a b with
          | Ok (Trace_reader.Identical { events }) ->
              check_int "event count" (Array.length sample) events
          | Ok (Trace_reader.Diverged _) ->
              Alcotest.fail "identical files reported diverged"
          | Error e -> Alcotest.failf "diff failed: %s" e))

let test_diff_finds_first_divergence () =
  let tampered = Array.copy sample in
  tampered.(1) <- Probe.Board_repost { time = 0.75 };
  with_tmp_trace (write_versioned sample) (fun a ->
      with_tmp_trace (write_versioned tampered) (fun b ->
          match Trace_reader.diff_files a b with
          | Ok (Trace_reader.Diverged d) ->
              (* Line 1 is the header, line 2 the first event. *)
              check_int "diverges on the tampered line" 3 d.Trace_reader.line;
              let expect_offset =
                String.length (Json.to_string Trace_export.header_json)
                + 1
                + String.length
                    (Json.to_string (Trace_export.event_to_json sample.(0)))
                + 1
              in
              check_int "byte offset points at the line start" expect_offset
                d.Trace_reader.byte_offset;
              check_true "left event parsed"
                (d.Trace_reader.left_event <> None);
              check_true "right event parsed"
                (d.Trace_reader.right_event <> None);
              check_true "describe renders the divergence"
                (Str_contains.contains
                   (Trace_reader.describe (Trace_reader.Diverged d))
                   "line 3")
          | Ok (Trace_reader.Identical _) ->
              Alcotest.fail "tampered trace reported identical"
          | Error e -> Alcotest.failf "diff failed: %s" e))

let test_diff_truncated_file () =
  let shorter = Array.sub sample 0 2 in
  with_tmp_trace (write_versioned sample) (fun a ->
      with_tmp_trace (write_versioned shorter) (fun b ->
          match Trace_reader.diff_files a b with
          | Ok (Trace_reader.Diverged d) ->
              check_true "left has the extra line"
                (d.Trace_reader.left <> None);
              check_true "right ended" (d.Trace_reader.right = None)
          | Ok (Trace_reader.Identical _) ->
              Alcotest.fail "truncated trace reported identical"
          | Error e -> Alcotest.failf "diff failed: %s" e))

let suite =
  [
    prop_write_read_roundtrip;
    case "versioned trace reads" test_versioned_reads;
    case "legacy trace reads" test_legacy_reads;
    case "unsupported schema rejected" test_unsupported_schema_rejected;
    case "parse error carries the line" test_error_carries_line;
    case "round event refused" test_round_event_refused;
    case "unreadable file is an error" test_unreadable_file_is_error;
    case "fold visits every event" test_fold_is_incremental;
    case "diff: identical traces" test_diff_identical;
    case "diff: first divergence pinpointed" test_diff_finds_first_divergence;
    case "diff: truncation detected" test_diff_truncated_file;
  ]
