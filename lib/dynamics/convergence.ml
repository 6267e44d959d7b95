open Staleroute_wardrop
module Vec = Staleroute_util.Vec

type kind = Strict | Weak

let at_equilibrium inst kind ~delta ~eps f =
  match kind with
  | Strict -> Equilibrium.is_delta_eps_equilibrium inst f ~delta ~eps
  | Weak -> Equilibrium.is_weak_delta_eps_equilibrium inst f ~delta ~eps

let bad_rounds inst kind ~delta ~eps snapshots =
  Array.fold_left
    (fun n f -> if at_equilibrium inst kind ~delta ~eps f then n else n + 1)
    0 snapshots

let first_good_round inst kind ~delta ~eps snapshots =
  let n = Array.length snapshots in
  let rec scan k =
    if k >= n then None
    else if at_equilibrium inst kind ~delta ~eps snapshots.(k) then Some k
    else scan (k + 1)
  in
  scan 0

let all_good_after inst kind ~delta ~eps snapshots =
  let n = Array.length snapshots in
  let rec scan k last_bad =
    if k >= n then
      match last_bad with
      | None -> Some 0
      | Some b -> if b = n - 1 then None else Some (b + 1)
    else if at_equilibrium inst kind ~delta ~eps snapshots.(k) then
      scan (k + 1) last_bad
    else scan (k + 1) (Some k)
  in
  scan 0 None

type oscillation = { period2_distance : float; step_distance : float }

let detect_oscillation ?(tail = 20) snapshots =
  let n = Array.length snapshots in
  if n < 3 then { period2_distance = 0.; step_distance = 0. }
  else begin
    let from = max 0 (n - tail) in
    let period2 = ref 0. and step = ref infinity in
    for k = from to n - 3 do
      period2 :=
        Float.max !period2 (Vec.dist1 snapshots.(k) snapshots.(k + 2));
      step := Float.min !step (Vec.dist1 snapshots.(k) snapshots.(k + 1))
    done;
    if !step = infinity then step := 0.;
    { period2_distance = !period2; step_distance = !step }
  end

let is_oscillating ?tail ?(tol = 1e-3) snapshots =
  let o = detect_oscillation ?tail snapshots in
  (* Scale-free criterion: the orbit recurs after two rounds much more
     precisely than it moves in one round, and it genuinely moves. *)
  o.step_distance > tol
  && o.period2_distance <= 0.01 *. o.step_distance

let potential_gap ?phi_star (r : Driver.result) =
  let phi_star =
    match phi_star with
    | Some v -> v
    | None -> (Frank_wolfe.equilibrium r.final_instance).Frank_wolfe.objective
  in
  let n = Array.length r.records in
  (* The final sample sits where the last phase ends, on the same clock
     as its [Phase_end] event. *)
  let final_time =
    if n = 0 then 0.
    else r.records.(n - 1).start_time +. Driver.phase_length r.config
  in
  Array.init (n + 1) (fun k ->
      if k < n then
        let p = r.records.(k) in
        (p.start_time, p.start_potential -. phi_star)
      else (final_time, r.final_potential -. phi_star))

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
