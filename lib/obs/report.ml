module Table = Staleroute_util.Table
module Stats = Staleroute_util.Stats
module Ascii_plot = Staleroute_util.Ascii_plot

type t = { events : Probe.event array; snapshot : Metrics.snapshot option }

let of_events ?snapshot events = { events; snapshot }

let count t pred = Array.fold_left (fun n e -> if pred e then n + 1 else n) 0 t.events

let phases t = count t (function Probe.Phase_start _ -> true | _ -> false)

let board_reposts t =
  count t (function Probe.Board_repost _ -> true | _ -> false)

let kernel_rebuilds t =
  count t (function Probe.Kernel_rebuild _ -> true | _ -> false)

let step_batches t = count t (function Probe.Step_batch _ -> true | _ -> false)
let agent_wakes t = count t (function Probe.Agent_wake _ -> true | _ -> false)

let faults_injected t =
  count t (function Probe.Fault_injected _ -> true | _ -> false)

let guard_trips t = count t (function Probe.Guard_trip _ -> true | _ -> false)
let edge_downs t = count t (function Probe.Edge_down _ -> true | _ -> false)
let edge_ups t = count t (function Probe.Edge_up _ -> true | _ -> false)

(* Per-kind fault tally for the faults section: the four board-fault
   kinds in plan order, then the topology-outage transitions.  Kinds
   that never fired are omitted, so clean-run reports are unchanged. *)
let fault_kind_counts t =
  let board =
    List.filter_map
      (fun k ->
        let n =
          count t (function
            | Probe.Fault_injected { kind; _ } -> String.equal kind k
            | _ -> false)
        in
        if n > 0 then Some (k, n) else None)
      [ "drop"; "delay"; "partial"; "noise" ]
  in
  let outage =
    List.filter_map
      (fun (k, n) -> if n > 0 then Some (k, n) else None)
      [ ("edge down", edge_downs t); ("edge up", edge_ups t) ]
  in
  board @ outage

let path_growths t =
  count t (function Probe.Path_growth _ -> true | _ -> false)

let migrations t =
  count t (function Probe.Agent_wake { migrated; _ } -> migrated | _ -> false)

let potential_series t =
  let starts = ref [] in
  let last_end = ref [] in
  Array.iter
    (fun ev ->
      match ev with
      | Probe.Phase_start { time; potential; _ } ->
          starts := (time, potential) :: !starts
      | Probe.Phase_end { time; potential; _ } ->
          last_end := [ (time, potential) ]
      | _ -> ())
    t.events;
  Array.of_list (List.rev_append !starts !last_end)

let delta_phi_series t =
  let out = ref [] in
  Array.iter
    (fun ev ->
      match ev with
      | Probe.Phase_end { delta_phi; _ } -> out := delta_phi :: !out
      | _ -> ())
    t.events;
  Array.of_list (List.rev !out)

let virtual_gain_series t =
  let out = ref [] in
  Array.iter
    (fun ev ->
      match ev with
      | Probe.Phase_end { virtual_gain; _ } -> out := virtual_gain :: !out
      | _ -> ())
    t.events;
  Array.of_list (List.rev !out)

let dist_row table name xs =
  if Array.length xs > 0 then begin
    let s = Stats.summarize xs in
    Table.add_row table
      [
        name;
        Printf.sprintf "mean=%.4g min=%.4g max=%.4g" s.Stats.mean s.Stats.min
          s.Stats.max;
      ]
  end

let to_string t =
  let buf = Buffer.create 1024 in
  let summary =
    Table.create ~title:"run summary" ~columns:[ "quantity"; "value" ]
  in
  let add name n = if n > 0 then Table.add_row summary [ name; string_of_int n ] in
  add "phases" (phases t);
  add "board reposts" (board_reposts t);
  add "kernel rebuilds" (kernel_rebuilds t);
  add "integrator step batches" (step_batches t);
  add "agent wake-ups" (agent_wakes t);
  add "agent migrations" (migrations t);
  add "paths grown" (path_growths t);
  add "faults injected" (faults_injected t);
  add "guard trips" (guard_trips t);
  let series = potential_series t in
  if Array.length series > 0 then begin
    let phis = Array.map snd series in
    Table.add_row summary
      [ "potential start"; Printf.sprintf "%.6g" phis.(0) ];
    Table.add_row summary
      [
        "potential final";
        Printf.sprintf "%.6g" phis.(Array.length phis - 1);
      ]
  end;
  dist_row summary "per-phase delta phi" (delta_phi_series t);
  dist_row summary "per-phase virtual gain" (virtual_gain_series t);
  Buffer.add_string buf (Table.to_string summary);
  Buffer.add_char buf '\n';
  (match fault_kind_counts t with
  | [] -> ()
  | kinds ->
      let ft = Table.create ~title:"faults" ~columns:[ "kind"; "count" ] in
      List.iter
        (fun (k, n) -> Table.add_row ft [ k; string_of_int n ])
        kinds;
      Buffer.add_string buf (Table.to_string ft);
      Buffer.add_char buf '\n');
  (match t.snapshot with
  | None -> ()
  | Some snap ->
      Buffer.add_string buf (Table.to_string (Metrics.to_table snap));
      Buffer.add_char buf '\n');
  if Array.length series >= 2 then begin
    let phi_min = Array.fold_left (fun m (_, y) -> Float.min m y) infinity series in
    let gap = Array.map (fun (x, y) -> (x, y -. phi_min)) series in
    Buffer.add_string buf
      (Ascii_plot.render ~height:12
         ~title:"potential gap phi(t) - min phi (phase starts)"
         [
           {
             Ascii_plot.label = "phi gap";
             points = Array.to_list gap;
           };
         ]);
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let print t = print_string (to_string t)
