open Staleroute_wardrop
module Vec = Staleroute_util.Vec
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics
module Span = Staleroute_obs.Span

type staleness = Fresh | Stale of float

type config = {
  policy : Policy.t;
  staleness : staleness;
  phases : int;
  steps_per_phase : int;
  scheme : Integrator.scheme;
}

let default_config ~policy ~staleness =
  {
    policy;
    staleness;
    phases = 200;
    steps_per_phase = 20;
    scheme = Integrator.Rk4;
  }

type phase_record = {
  index : int;
  start_time : float;
  start_flow : Flow.t;
  start_potential : float;
  virtual_gain : float;
  delta_phi : float;
}

type result = {
  config : config;
  records : phase_record array;
  final_flow : Flow.t;
  final_potential : float;
  final_instance : Instance.t;
}

type board_state = Boundary.board_state = {
  posted_at : float;
  board_flow : Flow.t;
  board_latencies : float array;
}

type snapshot = {
  next_phase : int;
  flow : Flow.t;
  board : board_state option;
  records_so_far : phase_record list;
  grown_paths : (int * int array) list;
}

let phase_length config =
  match config.staleness with
  | Fresh -> 1.
  | Stale t ->
      if t <= 0. then invalid_arg "Driver: update period must be positive";
      t

(* One phase from [f] on a working copy.  The driver always runs on the
   compiled kernel path: a board is compiled to a [Rate_kernel.t] once
   per post and the phase is integrated in place against it.
   [Rates.flow_derivative] remains as the reference implementation
   (tests and the microbenchmarks compare the two). *)
let advance_one_phase b config ~integrate ~index:k ~time f =
  let tau = phase_length config in
  let steps = config.steps_per_phase in
  let g = Vec.copy f in
  (* Evacuation happens on the working copy before any posting: a
     dropped re-post then keeps the *old* board (which still shows the
     dead edge alive — the headline stale-information hazard, since
     migration happily moves flow back onto it mid-phase), which is why
     the boundary re-evacuates every phase while the down-set is
     non-empty.  Under fresh information the outage chain still lives
     on the phase grid: every interior step's re-post carries the same
     down-set. *)
  Boundary.outage b ~index:k ~time g;
  match config.staleness with
  | Stale _ -> (
      (* A lost re-post keeps the previous board and its kernel.  A
         delayed one lands mid-phase, snapped to the integrator-step
         grid: the head of the phase still runs on the old board, and
         with a single step per phase it collapses to a drop.  Columns
         are priced against whichever posting is operative at the
         phase start — agents can only discover routes the board
         actually shows. *)
      let landing = Boundary.attempt b ~index:k ~time ~slots:steps g in
      let g = Boundary.grow b ~index:k ~time g in
      match landing with
      | Posted | Kept ->
          integrate ~t0:time ~tau ~steps g;
          g
      | Delayed s1 ->
          let h = tau /. float_of_int steps in
          integrate ~t0:time ~tau:(h *. float_of_int s1) ~steps:s1 g;
          let post_time = time +. (h *. float_of_int s1) in
          Boundary.post b ~time:post_time g;
          integrate ~t0:post_time
            ~tau:(h *. float_of_int (steps - s1))
            ~steps:(steps - s1) g;
          g)
  | Fresh ->
      (* Re-post before every internal step: zero information age up to
         the step size, and a kernel lives for exactly one step.  Faults
         are keyed by the global update index (one update per step); a
         delayed post is equivalent to a dropped one, because the next
         step re-posts anyway.  Column generation still prices once per
         phase boundary (the first step's posting). *)
      let h = tau /. float_of_int steps in
      let g = ref g in
      for j = 0 to steps - 1 do
        let step_time = time +. (float_of_int j *. h) in
        let (_ : Boundary.attempt) =
          Boundary.attempt b ~index:((k * steps) + j) ~time:step_time ~slots:1
            !g
        in
        if j = 0 then g := Boundary.grow b ~index:k ~time:step_time !g;
        integrate ~t0:step_time ~tau:h ~steps:1 !g
      done;
      !g

let run ?(probe = Probe.null) ?(metrics = Metrics.null) ?(spans = Span.null)
    ?faults ?guard ?colgen ?from ?(checkpoint_every = 0) ?on_checkpoint inst
    config ~init =
  let tau = phase_length config in
  (* Resuming: the snapshot flow is bit-exact driver output — it is
     deliberately NOT re-projected (an uninterrupted run does not
     re-project between phases either). *)
  let resume =
    Option.map
      (fun s ->
        if s.next_phase < 0 || s.next_phase > config.phases then
          invalid_arg "Driver.run: snapshot phase outside configured range";
        if List.length s.records_so_far <> s.next_phase then
          invalid_arg "Driver.run: snapshot records inconsistent with phase";
        {
          Boundary.next_index = s.next_phase;
          start_flow = s.flow;
          posted = s.board;
          grown_paths = s.grown_paths;
        })
      from
  in
  let b, f0 =
    Boundary.create ~probe ~metrics ~spans ?faults ?guard ?colgen ?resume
      ~phases:config.phases ~steps:config.steps_per_phase inst config.policy
      ~init
  in
  let derivs = Metrics.counter metrics "derivative_evals" in
  let stage = Integrator.stage_evals config.scheme in
  let integrate ~t0 ~tau ~steps g =
    Boundary.integrate b config.scheme ~t0 ~tau ~steps g;
    Metrics.incr ~by:(stage * steps) derivs
  in
  let h_phi = Metrics.histogram metrics "phase_potential" in
  let h_dphi = Metrics.histogram metrics "phase_delta_phi" in
  let h_vgain = Metrics.histogram metrics "phase_virtual_gain" in
  let h_gc = Metrics.histogram metrics "phase_minor_words" in
  let g_final = Metrics.gauge metrics "final_potential" in
  (* Phase records stay flat until the end of the run: one float array
     per field and one array of start flows, so a long run keeps no
     per-phase record, cons or boxed-float blocks alive.  A resumed
     run keeps the snapshot's records as they are. *)
  let start_phase, prefix =
    match from with
    | None -> (0, [||])
    | Some s -> (s.next_phase, Array.of_list s.records_so_far)
  in
  let count = config.phases - start_phase in
  let start_times = Array.make count 0. in
  let start_flows = Array.make count f0 in
  let start_potentials = Array.make count 0. in
  let virtual_gains = Array.make count 0. in
  let delta_phis = Array.make count 0. in
  let record widen j =
    {
      index = start_phase + j;
      start_time = start_times.(j);
      start_flow = widen start_flows.(j);
      start_potential = start_potentials.(j);
      virtual_gain = virtual_gains.(j);
      delta_phi = delta_phis.(j);
    }
  in
  let f = ref f0 in
  let phi = ref (Potential.phi (Boundary.instance b) !f) in
  let ledger = Virtual_gain.ledger (Boundary.instance b) !f in
  for k = start_phase to config.phases - 1 do
    let sp_phase = Span.enter spans "phase" in
    let start_time = float_of_int k *. tau in
    let start_flow = Vec.copy !f in
    let start_potential = !phi in
    let gc0 = if Metrics.enabled metrics then Gc.minor_words () else 0. in
    if Probe.enabled probe then
      Probe.emit probe
        (Probe.Phase_start
           { index = k; time = start_time; potential = start_potential });
    let next =
      advance_one_phase b config ~integrate ~index:k ~time:start_time !f
    in
    let inst = Boundary.instance b in
    (* When this phase grew the active set, embed its start flow in the
       grown index: the new columns carried zero flow at the phase
       start, so the zero-extension is exact (same edge flows, same
       potential). *)
    let start_flow = Boundary.widen b start_flow in
    Boundary.guard_check b ~index:k ~time:(start_time +. tau) next;
    (* Φ(end) and V(start, end) in one pass; the ledger already holds
       the start flow's edge flows (the previous phase's end). *)
    let sp = Span.enter spans "phase_account" in
    let next_phi, virtual_gain = Virtual_gain.close_phase ledger inst next in
    Span.exit spans sp;
    let delta_phi = next_phi -. start_potential in
    if Probe.enabled probe then
      Probe.emit probe
        (Probe.Phase_end
           {
             index = k;
             time = start_time +. tau;
             potential = next_phi;
             virtual_gain;
             delta_phi;
           });
    if Metrics.enabled metrics then begin
      Metrics.observe h_phi start_potential;
      Metrics.observe h_dphi delta_phi;
      Metrics.observe h_vgain virtual_gain;
      Metrics.observe h_gc (Gc.minor_words () -. gc0)
    end;
    let j = k - start_phase in
    start_times.(j) <- start_time;
    start_flows.(j) <- start_flow;
    start_potentials.(j) <- start_potential;
    virtual_gains.(j) <- virtual_gain;
    delta_phis.(j) <- delta_phi;
    f := next;
    phi := next_phi;
    (match on_checkpoint with
    | Some save when checkpoint_every > 0 && (k + 1) mod checkpoint_every = 0
      ->
        let sp = Span.enter spans "checkpoint_save" in
        save
          {
            next_phase = k + 1;
            flow = Vec.copy !f;
            board = Boundary.board_state b;
            records_so_far =
              Array.to_list prefix @ List.init (j + 1) (record Fun.id);
            grown_paths = Boundary.grown_paths b;
          };
        Span.exit spans sp
    | _ -> ());
    Span.exit spans sp_phase
  done;
  Metrics.set g_final !phi;
  (* Normalize every record to the final dimension (zero-extension is
     exact — see above), so consumers can analyze the whole run against
     [final_instance] and a resumed run reproduces the same records.
     Only widened flows are copied: long runs copy nothing. *)
  let widen = Boundary.widen b in
  let records =
    Array.append
      (Array.map (fun r -> { r with start_flow = widen r.start_flow }) prefix)
      (Array.init count (record widen))
  in
  {
    config;
    records;
    final_flow = !f;
    final_potential = !phi;
    final_instance = Boundary.instance b;
  }
