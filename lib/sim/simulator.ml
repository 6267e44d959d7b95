open Staleroute_wardrop
open Staleroute_dynamics
module Rng = Staleroute_util.Rng
module Heap = Staleroute_util.Heap
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics

type info_mode = Synchronized | Polled

type config = {
  agents : int;
  update_period : float;
  horizon : float;
  policy : Policy.t;
  record_every : float;
  info_mode : info_mode;
}

type snapshot = { time : float; flow : Flow.t }

type result = {
  snapshots : snapshot array;
  final_flow : Flow.t;
  activations : int;
  migrations : int;
}

(* Largest-remainder apportionment of [total] units proportional to
   [weights]; exact even when the weights carry rounding noise. *)
let apportion total weights =
  let sum = Staleroute_util.Numerics.kahan_sum weights in
  let quota = Array.map (fun w -> float_of_int total *. w /. sum) weights in
  let base = Array.map (fun q -> int_of_float (Float.floor q)) quota in
  let assigned = Array.fold_left ( + ) 0 base in
  let remainder = Array.mapi (fun i q -> (q -. float_of_int base.(i), i)) quota in
  Array.sort (fun (a, _) (b, _) -> compare b a) remainder;
  for k = 0 to total - assigned - 1 do
    let _, i = remainder.(k) in
    base.(i) <- base.(i) + 1
  done;
  base

type state = {
  inst : Instance.t;
  config : config;
  counts : int array;          (* agents per path *)
  weight : float array;        (* demand weight of one agent, per commodity *)
  agent_path : int array;      (* current path of each agent *)
  mutable board : Bulletin_board.t;
  mutable previous_board : Bulletin_board.t;  (* for Polled mode *)
  mutable board_phase : int;   (* index of the posted phase *)
  mutable activations : int;
  mutable migrations : int;
  probe : Probe.t;
  reposts : Metrics.counter;
}

let empirical_flow st =
  Staleroute_util.Vec.init (Array.length st.counts) (fun p ->
      float_of_int st.counts.(p)
      *. st.weight.(Instance.commodity_of_path st.inst p))

let refresh_board_if_due st ~time =
  let phase = int_of_float (Float.floor (time /. st.config.update_period)) in
  if phase > st.board_phase then begin
    (* Several phases may pass without events: the flow is unchanged in
       between, so the skipped postings equal the latest one. *)
    st.previous_board <-
      (if phase = st.board_phase + 1 then st.board
       else
         Bulletin_board.post st.inst
           ~time:(float_of_int (phase - 1) *. st.config.update_period)
           (empirical_flow st));
    let post_time = float_of_int phase *. st.config.update_period in
    st.board <- Bulletin_board.post st.inst ~time:post_time (empirical_flow st);
    st.board_phase <- phase;
    if Probe.enabled st.probe then
      Probe.emit st.probe (Probe.Board_repost { time = post_time });
    Metrics.incr st.reposts
  end

(* The board this particular wake-up reads: the latest posting, or -
   in Polled mode - the posting that was current [age ~ U[0,T)] ago. *)
let observed_board st rng ~time =
  match st.config.info_mode with
  | Synchronized -> st.board
  | Polled ->
      let age = Rng.float rng st.config.update_period in
      if time -. age >= st.board.Bulletin_board.posted_at then st.board
      else st.previous_board

let activate st rng ~time agent =
  st.activations <- st.activations + 1;
  let board = observed_board st rng ~time in
  let p = st.agent_path.(agent) in
  let ci = Instance.commodity_of_path st.inst p in
  let dist =
    Sampling.distribution st.config.policy.Policy.sampling st.inst
      ~commodity:ci ~flow:board.Bulletin_board.flow
      ~latencies:board.Bulletin_board.path_latencies
  in
  let local = Rng.choose_weighted rng dist in
  let q = (Instance.paths_of_commodity st.inst ci).(local) in
  let migrated =
    q <> p
    && begin
         let mu =
           Migration.prob st.config.policy.Policy.migration
             ~ell_p:board.Bulletin_board.path_latencies.(p)
             ~ell_q:board.Bulletin_board.path_latencies.(q)
         in
         mu > 0. && Rng.uniform rng < mu
       end
  in
  if migrated then begin
    st.counts.(p) <- st.counts.(p) - 1;
    st.counts.(q) <- st.counts.(q) + 1;
    st.agent_path.(agent) <- q;
    st.migrations <- st.migrations + 1
  end;
  if Probe.enabled st.probe then
    Probe.emit st.probe
      (Probe.Agent_wake { time; agent; from_path = p; to_path = q; migrated })

let initial_paths inst init n_of_commodity =
  (* Apportion each commodity's agents over its paths to match [init]. *)
  let agent_path = ref [] in
  for ci = Instance.commodity_count inst - 1 downto 0 do
    let ps = Instance.paths_of_commodity inst ci in
    let weights = Array.map (fun p -> Float.max 0. (Staleroute_util.Vec.get init p)) ps in
    let total = Array.fold_left ( +. ) 0. weights in
    let weights =
      if total > 0. then weights else Array.map (fun _ -> 1.) ps
    in
    let counts = apportion n_of_commodity.(ci) weights in
    (* Emit agents path by path (order is irrelevant to the process). *)
    for j = Array.length ps - 1 downto 0 do
      for _ = 1 to counts.(j) do
        agent_path := ps.(j) :: !agent_path
      done
    done
  done;
  Array.of_list !agent_path

let run ?(probe = Probe.null) ?(metrics = Metrics.null) inst config ~rng ~init =
  if config.agents < 1 then invalid_arg "Simulator.run: agents < 1";
  if config.update_period <= 0. then
    invalid_arg "Simulator.run: update_period <= 0";
  if config.horizon <= 0. then invalid_arg "Simulator.run: horizon <= 0";
  if config.record_every <= 0. then
    invalid_arg "Simulator.run: record_every <= 0";
  if not (Flow.is_feasible inst init) then
    invalid_arg "Simulator.run: infeasible initial flow";
  let k = Instance.commodity_count inst in
  let demands = Array.init k (fun ci -> Instance.demand inst ci) in
  let n_of_commodity = apportion config.agents demands in
  (* A commodity that received no agent would silently lose its demand:
     give it one agent (possible only for tiny N and many commodities). *)
  Array.iteri
    (fun ci n ->
      if n = 0 then
        invalid_arg
          (Printf.sprintf
             "Simulator.run: commodity %d received no agents; increase N" ci))
    n_of_commodity;
  let weight =
    Array.init k (fun ci -> demands.(ci) /. float_of_int n_of_commodity.(ci))
  in
  let agent_path = initial_paths inst init n_of_commodity in
  let counts = Array.make (Instance.path_count inst) 0 in
  Array.iter (fun p -> counts.(p) <- counts.(p) + 1) agent_path;
  let initial_board = Bulletin_board.post inst ~time:0. init in
  let st =
    {
      inst;
      config;
      counts;
      weight;
      agent_path;
      board = initial_board;
      previous_board = initial_board;
      board_phase = 0;
      activations = 0;
      migrations = 0;
      probe;
      reposts = Metrics.counter metrics "board_reposts";
    }
  in
  let queue = Heap.create () in
  for a = 0 to config.agents - 1 do
    Heap.push queue ~priority:(Rng.exponential rng ~rate:1.) a
  done;
  let snapshots = ref [ { time = 0.; flow = empirical_flow st } ] in
  let next_record = ref config.record_every in
  let rec drain () =
    match Heap.peek queue with
    | None -> ()
    | Some (time, _) when time > config.horizon -> ()
    | Some (time, agent) ->
        ignore (Heap.pop queue);
        (* Emit any snapshots due before this event. *)
        while !next_record <= time && !next_record <= config.horizon do
          refresh_board_if_due st ~time:!next_record;
          snapshots :=
            { time = !next_record; flow = empirical_flow st } :: !snapshots;
          next_record := !next_record +. config.record_every
        done;
        refresh_board_if_due st ~time;
        activate st rng ~time agent;
        Heap.push queue ~priority:(time +. Rng.exponential rng ~rate:1.) agent;
        drain ()
  in
  drain ();
  while !next_record <= config.horizon do
    snapshots := { time = !next_record; flow = empirical_flow st } :: !snapshots;
    next_record := !next_record +. config.record_every
  done;
  if Metrics.enabled metrics then begin
    Metrics.incr ~by:st.activations (Metrics.counter metrics "activations");
    Metrics.incr ~by:st.migrations (Metrics.counter metrics "migrations");
    Metrics.set
      (Metrics.gauge metrics "migration_acceptance")
      (if st.activations = 0 then 0.
       else float_of_int st.migrations /. float_of_int st.activations)
  end;
  {
    snapshots = Array.of_list (List.rev !snapshots);
    final_flow = empirical_flow st;
    activations = st.activations;
    migrations = st.migrations;
  }
