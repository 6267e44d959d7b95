(* trace_tool: offline analytics over the JSONL traces routesim and the
   bench write — summarize a run, extract convergence series, filter
   events, and pinpoint where two traces first diverge. *)

open Cmdliner
module Probe = Staleroute_obs.Probe
module Report = Staleroute_obs.Report
module Json = Staleroute_obs.Json
module Trace_export = Staleroute_obs.Trace_export
module Trace_reader = Staleroute_obs.Trace_reader

let die msg =
  prerr_endline ("trace_tool: " ^ msg);
  exit 2

let read_events file =
  match Trace_reader.read_file file with
  | Error e -> die (file ^ ": " ^ e)
  | Ok (meta, events) -> (meta, Array.of_list events)

(* The "ev" tag of an event, matching the JSONL encoding. *)
let kind_of_event ev =
  match Trace_export.event_to_json ev with
  | Json.Obj (("ev", Json.String k) :: _) -> k
  | _ -> assert false

(* Sim-time of an event. *)
let time_of_event = function
  | Probe.Phase_start { time; _ }
  | Probe.Phase_end { time; _ }
  | Probe.Board_repost { time }
  | Probe.Kernel_rebuild { time }
  | Probe.Step_batch { time; _ }
  | Probe.Agent_wake { time; _ }
  | Probe.Path_growth { time; _ }
  | Probe.Fault_injected { time; _ }
  | Probe.Edge_down { time; _ }
  | Probe.Edge_up { time; _ }
  | Probe.Guard_trip { time; _ }
  | Probe.Note { time; _ } ->
      time

let summary file =
  let meta, events = read_events file in
  Printf.printf "trace            : %s\n" file;
  (match meta with
  | Some m -> Printf.printf "schema           : %d\n" m.Trace_reader.schema
  | None -> print_string "schema           : none (legacy headerless trace)\n");
  Printf.printf "events           : %d\n\n" (Array.length events);
  Report.print (Report.of_events events);
  0

let convergence file =
  let _, events = read_events file in
  let r = Report.of_events events in
  let series = Report.potential_series r in
  let dphi = Report.delta_phi_series r in
  let vgain = Report.virtual_gain_series r in
  print_string "phase,time,potential,delta_phi,virtual_gain\n";
  Array.iteri
    (fun i (time, phi) ->
      (* The potential series has one trailing sample (the final phase
         end) beyond the per-phase series. *)
      let cell a =
        if i < Array.length a then Printf.sprintf "%.8g" a.(i) else ""
      in
      Printf.printf "%d,%.6g,%.8g,%s,%s\n" i time phi (cell dphi) (cell vgain))
    series;
  0

let query file kinds t_from t_to =
  let _, events = read_events file in
  let keep ev =
    (match kinds with
    | [] -> true
    | ks -> List.mem (kind_of_event ev) ks)
    &&
    let t = time_of_event ev in
    t >= t_from && t <= t_to
  in
  let n = ref 0 in
  Array.iter
    (fun ev ->
      if keep ev then begin
        incr n;
        print_string (Json.to_string (Trace_export.event_to_json ev));
        print_newline ()
      end)
    events;
  Printf.eprintf "trace_tool: %d of %d events matched\n" !n (Array.length events);
  0

let diff file_a file_b =
  match Trace_reader.diff_files file_a file_b with
  | Error e -> die e
  | Ok result ->
      print_endline (Trace_reader.describe result);
      (match result with
      | Trace_reader.Identical _ -> 0
      | Trace_reader.Diverged _ -> 1)

let file_arg n doc = Arg.(required & pos n (some file) None & info [] ~docv:"FILE" ~doc)

let summary_cmd =
  Cmd.v
    (Cmd.info "summary"
       ~doc:
         "Schema and event counts plus the end-of-run report (phase \
          tallies, growth/fault/guard counts, per-phase delta-phi and \
          virtual-gain statistics, potential sparkline).")
    Term.(const summary $ file_arg 0 "Trace to summarize.")

let convergence_cmd =
  Cmd.v
    (Cmd.info "convergence"
       ~doc:
         "CSV of the potential trajectory: one row per phase start (plus \
          the final phase end) with the per-phase potential descent \
          delta-phi and the virtual gain V (Eq. 8).")
    Term.(const convergence $ file_arg 0 "Trace to extract the series from.")

let query_cmd =
  let kinds =
    Arg.(
      value
      & opt_all string []
      & info [ "e"; "event" ] ~docv:"KIND"
          ~doc:
            "Keep only events of this kind (repeatable): phase_start, \
             phase_end, board_repost, kernel_rebuild, step_batch, \
             agent_wake, path_growth, fault, edge_down, edge_up, guard_trip, \
             note.")
  in
  let t_from =
    Arg.(
      value & opt float neg_infinity
      & info [ "from" ] ~docv:"T" ~doc:"Keep only events at time >= $(docv).")
  in
  let t_to =
    Arg.(
      value & opt float infinity
      & info [ "to" ] ~docv:"T" ~doc:"Keep only events at time <= $(docv).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Filter a trace by event kind and sim-time range; matching events \
          are re-printed as JSONL.")
    Term.(const query $ file_arg 0 "Trace to filter." $ kinds $ t_from $ t_to)

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two traces line by line and report the first divergent \
          event with its line number and byte offset.  Exits 0 when the \
          traces are identical, 1 on divergence.")
    Term.(
      const diff $ file_arg 0 "Left trace." $ file_arg 1 "Right trace.")

let cmd =
  Cmd.group
    (Cmd.info "trace_tool" ~version:"1.0.0"
       ~doc:
         "Analyze the structured JSONL event traces written by routesim \
          --trace (versioned or legacy headerless).")
    [ summary_cmd; convergence_cmd; query_cmd; diff_cmd ]

let () =
  match Cmd.eval' ~catch:false cmd with
  | code -> exit code
  | exception Sys_error msg ->
      prerr_endline ("trace_tool: " ^ msg);
      exit 2
