let event_to_json = function
  | Probe.Phase_start { index; time; potential } ->
      Json.Obj
        [
          ("ev", Json.String "phase_start");
          ("index", Json.Int index);
          ("time", Json.Float time);
          ("phi", Json.Float potential);
        ]
  | Probe.Phase_end { index; time; potential; virtual_gain; delta_phi } ->
      Json.Obj
        [
          ("ev", Json.String "phase_end");
          ("index", Json.Int index);
          ("time", Json.Float time);
          ("phi", Json.Float potential);
          ("vgain", Json.Float virtual_gain);
          ("dphi", Json.Float delta_phi);
        ]
  | Probe.Board_repost { time } ->
      Json.Obj [ ("ev", Json.String "board_repost"); ("time", Json.Float time) ]
  | Probe.Kernel_rebuild { time } ->
      Json.Obj
        [ ("ev", Json.String "kernel_rebuild"); ("time", Json.Float time) ]
  | Probe.Step_batch { time; scheme; steps; tau } ->
      Json.Obj
        [
          ("ev", Json.String "step_batch");
          ("time", Json.Float time);
          ("scheme", Json.String scheme);
          ("steps", Json.Int steps);
          ("tau", Json.Float tau);
        ]
  | Probe.Agent_wake { time; agent; from_path; to_path; migrated } ->
      Json.Obj
        [
          ("ev", Json.String "agent_wake");
          ("time", Json.Float time);
          ("agent", Json.Int agent);
          ("from", Json.Int from_path);
          ("to", Json.Int to_path);
          ("migrated", Json.Bool migrated);
        ]
  | Probe.Path_growth { time; index; commodity; cost; incumbent; path_count }
    ->
      Json.Obj
        [
          ("ev", Json.String "path_growth");
          ("time", Json.Float time);
          ("index", Json.Int index);
          ("commodity", Json.Int commodity);
          ("cost", Json.Float cost);
          ("incumbent", Json.Float incumbent);
          ("paths", Json.Int path_count);
        ]
  | Probe.Fault_injected { time; index; kind; arg } ->
      Json.Obj
        [
          ("ev", Json.String "fault");
          ("time", Json.Float time);
          ("index", Json.Int index);
          ("kind", Json.String kind);
          ("arg", Json.Float arg);
        ]
  | Probe.Edge_down { time; index; edge } ->
      Json.Obj
        [
          ("ev", Json.String "edge_down");
          ("time", Json.Float time);
          ("index", Json.Int index);
          ("edge", Json.Int edge);
        ]
  | Probe.Edge_up { time; index; edge } ->
      Json.Obj
        [
          ("ev", Json.String "edge_up");
          ("time", Json.Float time);
          ("index", Json.Int index);
          ("edge", Json.Int edge);
        ]
  | Probe.Guard_trip { time; index; action; worst } ->
      Json.Obj
        [
          ("ev", Json.String "guard_trip");
          ("time", Json.Float time);
          ("index", Json.Int index);
          ("action", Json.String action);
          ("worst", Json.Float worst);
        ]
  | Probe.Note { time; name; value } ->
      Json.Obj
        [
          ("ev", Json.String "note");
          ("time", Json.Float time);
          ("name", Json.String name);
          ("value", Json.Float value);
        ]

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let ( let* ) = Result.bind

(* Drivers stamp events with finite model times; a non-finite one is
   damage, refused like a missing field. *)
let time_field json =
  let* t = field "time" Json.to_float json in
  if Float.is_finite t then Ok t
  else Error (Printf.sprintf "non-finite event time %s" (Json.float_repr t))

let event_of_json json =
  let* kind = field "ev" Json.to_str json in
  match kind with
  | "phase_start" ->
      let* index = field "index" Json.to_int json in
      let* time = time_field json in
      let* potential = field "phi" Json.to_float json in
      Ok (Probe.Phase_start { index; time; potential })
  | "phase_end" ->
      let* index = field "index" Json.to_int json in
      let* time = time_field json in
      let* potential = field "phi" Json.to_float json in
      let* virtual_gain = field "vgain" Json.to_float json in
      let* delta_phi = field "dphi" Json.to_float json in
      Ok (Probe.Phase_end { index; time; potential; virtual_gain; delta_phi })
  | "board_repost" ->
      let* time = time_field json in
      Ok (Probe.Board_repost { time })
  | "kernel_rebuild" ->
      let* time = time_field json in
      Ok (Probe.Kernel_rebuild { time })
  | "step_batch" ->
      let* time = time_field json in
      let* scheme = field "scheme" Json.to_str json in
      let* steps = field "steps" Json.to_int json in
      let* tau = field "tau" Json.to_float json in
      Ok (Probe.Step_batch { time; scheme; steps; tau })
  | "agent_wake" ->
      let* time = time_field json in
      let* agent = field "agent" Json.to_int json in
      let* from_path = field "from" Json.to_int json in
      let* to_path = field "to" Json.to_int json in
      let* migrated = field "migrated" Json.to_bool json in
      Ok (Probe.Agent_wake { time; agent; from_path; to_path; migrated })
  | "path_growth" ->
      let* time = time_field json in
      let* index = field "index" Json.to_int json in
      let* commodity = field "commodity" Json.to_int json in
      let* cost = field "cost" Json.to_float json in
      let* incumbent = field "incumbent" Json.to_float json in
      let* path_count = field "paths" Json.to_int json in
      Ok
        (Probe.Path_growth
           { time; index; commodity; cost; incumbent; path_count })
  | "fault" ->
      let* time = time_field json in
      let* index = field "index" Json.to_int json in
      let* kind = field "kind" Json.to_str json in
      let* arg = field "arg" Json.to_float json in
      Ok (Probe.Fault_injected { time; index; kind; arg })
  | "edge_down" ->
      let* time = time_field json in
      let* index = field "index" Json.to_int json in
      let* edge = field "edge" Json.to_int json in
      Ok (Probe.Edge_down { time; index; edge })
  | "edge_up" ->
      let* time = time_field json in
      let* index = field "index" Json.to_int json in
      let* edge = field "edge" Json.to_int json in
      Ok (Probe.Edge_up { time; index; edge })
  | "guard_trip" ->
      let* time = time_field json in
      let* index = field "index" Json.to_int json in
      let* action = field "action" Json.to_str json in
      let* worst = field "worst" Json.to_float json in
      Ok (Probe.Guard_trip { time; index; action; worst })
  | "note" ->
      let* time = time_field json in
      let* name = field "name" Json.to_str json in
      let* value = field "value" Json.to_float json in
      Ok (Probe.Note { time; name; value })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

let events_to_string events =
  let buf = Buffer.create (64 * Array.length events) in
  Array.iter
    (fun ev ->
      Buffer.add_string buf (Json.to_string (event_to_json ev));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let events_of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else begin
          match Json.of_string line with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok json -> (
              match event_of_json json with
              | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
              | Ok ev -> go (lineno + 1) (ev :: acc) rest)
        end
  in
  go 1 [] lines

let write_events oc events = output_string oc (events_to_string events)

let schema_version = 1

let header_json =
  Json.Obj
    [ ("ev", Json.String "trace_meta"); ("schema", Json.Int schema_version) ]

let write_trace oc events =
  output_string oc (Json.to_string header_json);
  output_char oc '\n';
  write_events oc events
