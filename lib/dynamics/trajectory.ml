open Staleroute_wardrop
module Vec = Staleroute_util.Vec

type sample = { time : float; flow : Flow.t }

type t = sample array

let record ?probe ?metrics ?spans ?faults ?guard ?colgen inst
    (config : Driver.config) ~init ~samples_per_phase =
  if samples_per_phase < 1 then
    invalid_arg "Trajectory.record: samples_per_phase < 1";
  let tau = Driver.phase_length config in
  let b, f0 =
    Boundary.create ?probe ?metrics ?spans ?faults ?guard ?colgen
      ~who:"Trajectory.record" ~phases:config.phases
      ~steps:config.steps_per_phase inst config.policy ~init
  in
  (* Integrate in [samples_per_phase] chunks per phase, re-posting the
     board per phase (Stale) or per chunk (Fresh). *)
  let steps_per_chunk = max 1 (config.steps_per_phase / samples_per_phase) in
  let chunk = tau /. float_of_int samples_per_phase in
  let f = ref f0 in
  let samples = ref [] in
  let push time flow = samples := { time; flow = Vec.copy flow } :: !samples in
  push 0. !f;
  for k = 0 to config.phases - 1 do
    let phase_start = float_of_int k *. tau in
    (* Outage boundary, before any posting: the evacuation jump lands
       between the phase's first and the previous phase's last
       sample. *)
    Boundary.outage b ~index:k ~time:phase_start !f;
    (* Chunk index (within this phase) where a delayed post lands: it
       lands on the chunk grid, collapsing to a drop with a single chunk
       per phase. *)
    let pending =
      match config.staleness with
      | Driver.Fresh -> None
      | Driver.Stale _ -> (
          let landing =
            Boundary.attempt b ~index:k ~time:phase_start
              ~slots:samples_per_phase !f
          in
          f := Boundary.grow b ~index:k ~time:phase_start !f;
          match landing with Delayed j -> Some j | Posted | Kept -> None)
    in
    for j = 0 to samples_per_phase - 1 do
      let time = phase_start +. (float_of_int j *. chunk) in
      (match config.staleness with
      | Driver.Stale _ -> if pending = Some j then Boundary.post b ~time !f
      | Driver.Fresh ->
          (* Every chunk is an update; faults are keyed by the global
             update index.  A delayed post behaves as a dropped one —
             the next chunk re-posts anyway. *)
          let (_ : Boundary.attempt) =
            Boundary.attempt b ~index:((k * samples_per_phase) + j) ~time
              ~slots:1 !f
          in
          if j = 0 then f := Boundary.grow b ~index:k ~time !f);
      let g = Vec.copy !f in
      Boundary.integrate b config.scheme ~t0:time ~tau:chunk
        ~steps:steps_per_chunk g;
      f := g;
      push (time +. chunk) !f
    done;
    Boundary.guard_check b ~index:k ~time:(phase_start +. tau) !f
  done;
  (* Normalize every sample to the final active dimension (exact: grown
     columns carried zero flow before they existed), mirroring
     [Driver.run]'s record normalization. *)
  Array.of_list
    (List.rev_map (fun s -> { s with flow = Boundary.widen b s.flow }) !samples)

let series observe t =
  Array.map (fun s -> (s.time, observe s.flow)) t

let potential_gap inst ?phi_star t =
  let phi_star =
    match phi_star with
    | Some v -> v
    | None -> (Frank_wolfe.equilibrium inst).Frank_wolfe.objective
  in
  series (fun f -> Potential.phi inst f -. phi_star) t

let fit_exponential_rate points =
  let usable =
    Array.of_list
      (List.filter_map
         (fun (t, y) -> if y > 0. then Some (t, log y) else None)
         (Array.to_list points))
  in
  let n = Array.length usable in
  if n < 2 then None
  else begin
    let nf = float_of_int n in
    let sum sel = Staleroute_util.Numerics.sum_by sel usable in
    let st = sum fst and sy = sum snd in
    let stt = sum (fun (t, _) -> t *. t) in
    let sty = sum (fun (t, y) -> t *. y) in
    let denom = (nf *. stt) -. (st *. st) in
    if denom <= 0. then None
    else Some (-.(((nf *. sty) -. (st *. sy)) /. denom))
  end

let time_to_threshold points ~threshold =
  let n = Array.length points in
  let rec scan i candidate =
    if i >= n then candidate
    else begin
      let t, y = points.(i) in
      if y <= threshold then
        scan (i + 1) (match candidate with None -> Some t | some -> some)
      else scan (i + 1) None
    end
  in
  scan 0 None
