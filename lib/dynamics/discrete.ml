open Staleroute_wardrop
module Vec = Staleroute_util.Vec
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics
module Span = Staleroute_obs.Span

type config = {
  policy : Policy.t;
  rounds : int;
  rounds_per_update : int;
}

type round_record = {
  index : int;
  start_flow : Flow.t;
  start_potential : float;
}

type result = {
  records : round_record array;
  final_flow : Flow.t;
  final_potential : float;
  final_instance : Instance.t;
}

(* The projection here is the raw in-place one, not the validating
   [Flow.project]: a NaN produced by a pathological policy must reach
   the next round boundary (where a [Guard] can see it) instead of
   raising from deep inside the step. *)
let step_kernel inst kernel f =
  let d = Rate_kernel.flow_derivative kernel f in
  let g = Vec.copy f in
  Vec.axpy ~alpha:1. ~x:d ~y:g;
  Flow.project_ inst g;
  g

let step inst policy ~board f =
  step_kernel inst (Rate_kernel.build inst policy ~board) f

let run ?(probe = Probe.null) ?(metrics = Metrics.null) ?(spans = Span.null)
    ?faults ?guard ?colgen inst config ~init =
  let b, f0 =
    Boundary.create ~probe ~metrics ~spans ?faults ?guard ?colgen
      ~who:"Discrete.run" ~phases:config.rounds
      ~steps:config.rounds_per_update inst config.policy ~init
  in
  let m_rounds = Metrics.counter metrics "rounds" in
  let f = ref f0 in
  (* The compiled kernel lives as long as its board post — which under
     fault injection can span several update periods (dropped re-posts
     keep the old board, and its kernel stays legitimately current).
     The round-0 post comes before the first update attempt, so attempt
     0 always has a previous board to lean on. *)
  Boundary.post b ~time:0. !f;
  (* Round index where a delayed re-post lands. *)
  let pending = ref None in
  let records = ref [] in
  for k = 0 to config.rounds - 1 do
    let time = float_of_int k in
    if k mod config.rounds_per_update = 0 then begin
      (* Update attempt [u]; faults and outages are keyed by it, so the
         plan is independent of [rounds_per_update] granularity.  Under
         a subsequent [Drop] the surviving old board still shows dead
         edges alive, so re-evacuation at every attempt while the
         down-set is non-empty is load-bearing.  A delayed re-post lands
         on the round grid, a fraction of the update period late. *)
      let u = k / config.rounds_per_update in
      Boundary.outage b ~index:u ~time !f;
      (match
         Boundary.attempt b ~index:u ~time ~slots:config.rounds_per_update !f
       with
      | Delayed s -> pending := Some (k + s)
      | Posted | Kept -> ());
      f := Boundary.grow b ~index:u ~time !f
    end;
    if !pending = Some k then begin
      pending := None;
      Boundary.post b ~time !f
    end;
    let kernel = Boundary.kernel b in
    let start_potential = Potential.phi (Boundary.instance b) !f in
    if Probe.enabled probe then
      Probe.emit probe (Probe.Round { index = k; potential = start_potential });
    Metrics.incr m_rounds;
    records :=
      { index = k; start_flow = Vec.copy !f; start_potential } :: !records;
    let sp = Span.enter spans "round_step" in
    f := step_kernel (Boundary.instance b) kernel !f;
    Span.exit spans sp;
    Boundary.guard_check b ~index:k ~time:(float_of_int (k + 1)) !f
  done;
  let final_instance = Boundary.instance b in
  (* Normalize every record to the final active dimension (exact —
     grown columns carried zero flow before admission), mirroring
     [Driver.run]. *)
  {
    records =
      Array.of_list
        (List.rev_map
           (fun r -> { r with start_flow = Boundary.widen b r.start_flow })
           !records);
    final_flow = !f;
    final_potential = Potential.phi final_instance !f;
    final_instance;
  }
