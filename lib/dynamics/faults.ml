open Staleroute_wardrop
module Rng = Staleroute_util.Rng

type fault =
  | Drop
  | Delay of float
  | Partial of float
  | Noise of float

type spec = {
  drop : float;
  delay : float;
  delay_fraction : float;
  partial : float;
  partial_fraction : float;
  noise : float;
  noise_sigma : float;
  outage : float;
  outage_mttr : float;
  outage_seed : int;
  seed : int;
}

let none =
  {
    drop = 0.;
    delay = 0.;
    delay_fraction = 0.5;
    partial = 0.;
    partial_fraction = 0.5;
    noise = 0.;
    noise_sigma = 0.1;
    outage = 0.;
    outage_mttr = 4.;
    outage_seed = 0;
    seed = 0;
  }

let check_prob name p =
  if not (Float.is_finite p) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Faults.make: %s must be in [0, 1]" name)

let make ?(drop = 0.) ?(delay = 0.) ?(delay_fraction = 0.5) ?(partial = 0.)
    ?(partial_fraction = 0.5) ?(noise = 0.) ?(noise_sigma = 0.1) ?(outage = 0.)
    ?(outage_mttr = 4.) ?(outage_seed = 0) ?(seed = 0) () =
  check_prob "drop" drop;
  check_prob "delay" delay;
  check_prob "partial" partial;
  check_prob "noise" noise;
  check_prob "outage" outage;
  if drop +. delay +. partial +. noise > 1. +. 1e-12 then
    invalid_arg "Faults.make: fault probabilities must sum to at most 1";
  if not (Float.is_finite delay_fraction)
     || delay_fraction <= 0.
     || delay_fraction >= 1.
  then invalid_arg "Faults.make: delay_fraction must be in (0, 1)";
  if not (Float.is_finite partial_fraction)
     || partial_fraction <= 0.
     || partial_fraction > 1.
  then invalid_arg "Faults.make: partial_fraction must be in (0, 1]";
  if not (Float.is_finite noise_sigma) || noise_sigma <= 0. then
    invalid_arg "Faults.make: noise_sigma must be positive";
  if not (Float.is_finite outage_mttr) || outage_mttr < 1. then
    invalid_arg "Faults.make: outage_mttr must be at least 1";
  {
    drop;
    delay;
    delay_fraction;
    partial;
    partial_fraction;
    noise;
    noise_sigma;
    outage;
    outage_mttr;
    outage_seed;
    seed;
  }

(* --- CLI syntax --- *)

let valid_keys = [ "drop"; "delay"; "partial"; "noise"; "outage"; "seed" ]

let float_field name s =
  match float_of_string_opt s with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "faults: bad number %S in %s" s name)

let ( let* ) = Result.bind

let of_string s =
  let s = String.trim s in
  if s = "none" || s = "" then Ok none
  else begin
    let parse_field acc item =
      let* acc = acc in
      match String.index_opt item '=' with
      | None -> Error (Printf.sprintf "faults: expected key=value, got %S" item)
      | Some i -> (
          let key = String.sub item 0 i in
          let value = String.sub item (i + 1) (String.length item - i - 1) in
          let prob_and_param name =
            match String.index_opt value ':' with
            | None ->
                let* p = float_field name value in
                Ok (p, None)
            | Some j ->
                let* p = float_field name (String.sub value 0 j) in
                let* a =
                  float_field name
                    (String.sub value (j + 1) (String.length value - j - 1))
                in
                Ok (p, Some a)
          in
          match key with
          | "drop" ->
              let* p = float_field "drop" value in
              Ok { acc with drop = p }
          | "delay" ->
              let* p, f = prob_and_param "delay" in
              Ok
                {
                  acc with
                  delay = p;
                  delay_fraction =
                    Option.value f ~default:acc.delay_fraction;
                }
          | "partial" ->
              let* p, f = prob_and_param "partial" in
              Ok
                {
                  acc with
                  partial = p;
                  partial_fraction =
                    Option.value f ~default:acc.partial_fraction;
                }
          | "noise" ->
              let* p, sg = prob_and_param "noise" in
              Ok
                {
                  acc with
                  noise = p;
                  noise_sigma = Option.value sg ~default:acc.noise_sigma;
                }
          | "outage" -> (
              (* outage=RATE[:MTTR[:SEED]] — up to two colon parameters,
                 the second an integer seed. *)
              match String.split_on_char ':' value with
              | [ rate ] ->
                  let* p = float_field "outage" rate in
                  Ok { acc with outage = p }
              | [ rate; mttr ] ->
                  let* p = float_field "outage" rate in
                  let* m = float_field "outage" mttr in
                  Ok { acc with outage = p; outage_mttr = m }
              | [ rate; mttr; sd ] -> (
                  let* p = float_field "outage" rate in
                  let* m = float_field "outage" mttr in
                  match int_of_string_opt sd with
                  | Some n ->
                      Ok
                        {
                          acc with
                          outage = p;
                          outage_mttr = m;
                          outage_seed = n;
                        }
                  | None ->
                      Error (Printf.sprintf "faults: bad outage seed %S" sd))
              | _ ->
                  Error
                    (Printf.sprintf
                       "faults: outage expects RATE[:MTTR[:SEED]], got %S"
                       value))
          | "seed" -> (
              match int_of_string_opt value with
              | Some n -> Ok { acc with seed = n }
              | None -> Error (Printf.sprintf "faults: bad seed %S" value))
          | other ->
              Error
                (Printf.sprintf "faults: unknown field %S (valid keys: %s)"
                   other
                   (String.concat ", " valid_keys)))
    in
    let* spec =
      List.fold_left parse_field (Ok none) (String.split_on_char ',' s)
    in
    match
      make ~drop:spec.drop ~delay:spec.delay
        ~delay_fraction:spec.delay_fraction ~partial:spec.partial
        ~partial_fraction:spec.partial_fraction ~noise:spec.noise
        ~noise_sigma:spec.noise_sigma ~outage:spec.outage
        ~outage_mttr:spec.outage_mttr ~outage_seed:spec.outage_seed
        ~seed:spec.seed ()
    with
    | spec -> Ok spec
    | exception Invalid_argument msg -> Error msg
  end

let null_probabilities s =
  s.drop = 0. && s.delay = 0. && s.partial = 0. && s.noise = 0.

let inert s = null_probabilities s && s.outage = 0.

let to_string s =
  if inert s then "none"
  else begin
    let fields = ref [] in
    let addf fmt = Printf.ksprintf (fun x -> fields := x :: !fields) fmt in
    if s.seed <> 0 && not (null_probabilities s) then addf "seed=%d" s.seed;
    if s.outage > 0. then
      if s.outage_seed <> 0 then
        addf "outage=%g:%g:%d" s.outage s.outage_mttr s.outage_seed
      else addf "outage=%g:%g" s.outage s.outage_mttr;
    if s.noise > 0. then addf "noise=%g:%g" s.noise s.noise_sigma;
    if s.partial > 0. then addf "partial=%g:%g" s.partial s.partial_fraction;
    if s.delay > 0. then addf "delay=%g:%g" s.delay s.delay_fraction;
    if s.drop > 0. then addf "drop=%g" s.drop;
    String.concat "," !fields
  end

(* --- the compiled plan --- *)

type t = { spec : spec; board_null : bool; null : bool }

let plan spec =
  {
    spec;
    board_null = null_probabilities spec;
    null = inert spec;
  }

let spec t = t.spec
let is_null t = t.null

(* Three independent streams per phase index, so the decision draw, the
   partial-refresh subset and the noise draws never share state: each is
   a pure function of (seed, index) no matter which faults fired
   before. *)
let rng_for t ~index ~stream = Rng.create ~seed:t.spec.seed ~stream:((3 * index) + stream) ()

let fault_at t ~index =
  if t.board_null then None
  else begin
    let s = t.spec in
    let u = Rng.uniform (rng_for t ~index ~stream:0) in
    if u < s.drop then Some Drop
    else if u < s.drop +. s.delay then Some (Delay s.delay_fraction)
    else if u < s.drop +. s.delay +. s.partial then
      Some (Partial s.partial_fraction)
    else if u < s.drop +. s.delay +. s.partial +. s.noise then
      Some (Noise s.noise_sigma)
    else None
  end

(* --- topology outages --- *)

(* Finite so posted latency arithmetic (differences in Migration.prob,
   the potential integrand) stays NaN-free; large enough that a dead
   edge never prices into any shortest path or migration target. *)
let dead_latency = 1e12

(* The outage chain draws from its own seed space (the xor keeps it
   disjoint from the board-fault streams even for equal seeds) with one
   stream per (phase, edge) cell, so a transition is a pure function of
   (outage_seed, phase, edge) — query order, pool width and the board
   faults that fired cannot perturb it.  Edge ids must fit 20 bits;
   instances are orders of magnitude below that. *)
let outage_rng t ~phase ~edge =
  assert (edge < 0x100000);
  Rng.create
    ~seed:(t.spec.outage_seed lxor 0x6F757467)
    ~stream:((phase lsl 20) lor edge)
    ()

(* Two-state Markov chain on the phase grid: an alive edge fails with
   probability [outage]; a dead edge repairs with probability
   [1 / outage_mttr] (geometric downtime with mean [outage_mttr]
   phases). *)
let transition t ~phase ~edge ~was_down =
  let u = Rng.uniform (outage_rng t ~phase ~edge) in
  if was_down then u >= 1. /. t.spec.outage_mttr else u < t.spec.outage

(* State of [edge] *during* phase [phase]: fold the chain from phase 0.
   The pure oracle anchors both the purity tests and resume — nothing
   about the chain is ever checkpointed. *)
let edge_down t ~edge ~phase =
  if t.spec.outage = 0. then false
  else begin
    let down = ref false in
    for ph = 0 to phase do
      down := transition t ~phase:ph ~edge ~was_down:!down
    done;
    !down
  end

type outage = { plan : t; down : bool array; mutable n_down : int }

let outage_start t ~edges ~phase =
  if t.spec.outage = 0. then None
  else begin
    (* State *entering* [phase]: transitions 0 .. phase-1 applied, so
       the first [outage_step ~phase] lands the resumed chain exactly
       where the uninterrupted run's is. *)
    let down =
      Array.init edges (fun edge -> edge_down t ~edge ~phase:(phase - 1))
    in
    let n_down = Array.fold_left (fun n d -> if d then n + 1 else n) 0 down in
    Some { plan = t; down; n_down }
  end

let outage_step st ~phase ~on_change =
  for e = 0 to Array.length st.down - 1 do
    let was = st.down.(e) in
    let now = transition st.plan ~phase ~edge:e ~was_down:was in
    if now <> was then begin
      st.down.(e) <- now;
      st.n_down <- st.n_down + (if now then 1 else -1);
      on_change ~edge:e ~down:now
    end
  done

let outage_down st = if st.n_down = 0 then None else Some st.down

let path_dead inst ~down p =
  let es = Instance.path_edges inst p in
  let n = Array.length es in
  let rec any i = i < n && (down.(es.(i)) || any (i + 1)) in
  any 0

let dead_edge_latencies inst ~down flow =
  let el = Flow.edge_latencies inst (Flow.edge_flows inst flow) in
  for e = 0 to Array.length el - 1 do
    if down.(e) then el.(e) <- dead_latency
  done;
  el

let alive_latencies ~down latencies =
  Array.mapi (fun e l -> if down.(e) then infinity else l) latencies

(* Pin the dead edges in a freshly allocated latency array.  Callers
   below only apply this to arrays they just built, never to a board's
   posted array. *)
let apply_down down latencies =
  (match down with
  | None -> ()
  | Some d ->
      for e = 0 to Array.length latencies - 1 do
        if d.(e) then latencies.(e) <- dead_latency
      done);
  latencies

let board ?delta ?down t ~index fault inst ~time ~prev flow =
  let edge_latencies =
    match (fault, prev) with
    | Some (Partial fraction), Some old ->
        (* The fresh latencies are computed for every edge even though
           only the refreshed subset survives: the per-edge RNG draws
           must consume the stream in edge order regardless of the
           subset, so the plan stays a pure function of (seed, index).
           Dead edges are pinned *after* the mix — a partial refresh
           can not resurrect a dead edge, though it may keep a
           recovered one posted dead for another phase (mixed-age
           boards are inconsistent by design). *)
        let fresh = Flow.edge_latencies inst (Flow.edge_flows inst flow) in
        let stale = old.Bulletin_board.edge_latencies in
        let rng = rng_for t ~index ~stream:1 in
        Some
          (apply_down down
             (Array.mapi
                (fun e fresh_e ->
                  if Rng.uniform rng < fraction then fresh_e else stale.(e))
                fresh))
    | Some (Noise sigma), _ ->
        let fresh = Flow.edge_latencies inst (Flow.edge_flows inst flow) in
        let rng = rng_for t ~index ~stream:2 in
        Some
          (apply_down down
             (Array.map (fun l -> l *. exp (sigma *. Rng.gaussian rng)) fresh))
    | _ -> (
        match down with
        | None -> None
        | Some d -> Some (dead_edge_latencies inst ~down:d flow))
  in
  match prev with
  | Some prev ->
      Bulletin_board.repost ?delta ?edge_latencies inst ~prev ~time flow
  | None -> Bulletin_board.post ?edge_latencies inst ~time flow
