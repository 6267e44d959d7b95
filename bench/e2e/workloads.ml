(* The benchmark's four jobs.  Each draws its inputs from the seed,
   turns them into program state (the set-up step), and names what a
   user runs after [Driver.run] (the judge).  README.md gives the
   reason for each workload. *)

open Staleroute_wardrop
open Staleroute_dynamics
module Gen = Staleroute_graph.Gen
module Digraph = Staleroute_graph.Digraph
module Latency = Staleroute_latency.Latency
module Rng = Staleroute_util.Rng
module Span = Staleroute_obs.Span
module Common = Staleroute_experiments.Common

type size = Full | Quick

(* Everything [Driver.run] takes. *)
type state = {
  inst : Instance.t;
  config : Driver.config;
  init : Flow.t;
  colgen : Path_pool.t option;
  faults : Faults.t;
  guard : Guard.t option;
}

type verdict = {
  unsat_volume : float;
  reference : Frank_wolfe.result option;  (** where the judge solves FW *)
}

type t = {
  name : string;
  lemma4 : bool;
      (** whether the run meets Lemma 4's hypotheses: an alpha-smooth
          policy, [T <= T*] and no faults *)
  generate : size -> seed:int -> unit -> state;
      (** draws the inputs from the seed; the returned function is the
          set-up step *)
  judge : Span.recorder -> state -> Driver.result -> verdict;
}

(* routesim's default report thresholds. *)
let delta = 0.1
let eps = 0.1

(* E18's latency recipe, used by every workload. *)
let seeded_latencies rng m =
  Array.init m (fun _ ->
      Latency.affine
        ~slope:(0.25 +. Rng.float rng 1.5)
        ~intercept:(Rng.float rng 0.3))

let config ~policy ~staleness ~phases ~steps =
  {
    Driver.policy;
    staleness;
    phases;
    steps_per_phase = steps;
    scheme = Integrator.Rk4;
  }

let plain inst config init =
  {
    inst;
    config;
    init;
    colgen = None;
    faults = Faults.plan Faults.none;
    guard = None;
  }

let single (st : Gen.st) = [ Commodity.single ~src:st.src ~dst:st.dst ]

(* routesim's report after a run; only the unsatisfied volume is
   checked, the rest is timed. *)
let report _spans _state (r : Driver.result) =
  let finst = r.final_instance in
  let snapshots = Common.phase_start_flows r in
  ignore (Equilibrium.wardrop_gap finst r.final_flow : float);
  ignore
    (Convergence.bad_rounds finst Convergence.Strict ~delta ~eps snapshots
      : int);
  ignore (Convergence.is_oscillating snapshots : bool);
  {
    unsat_volume = Equilibrium.unsatisfied_volume finst r.final_flow ~delta;
    reference = None;
  }

let stale_wide =
  {
    name = "stale_wide";
    lemma4 = true;
    generate =
      (fun size ~seed ->
        let links, phases =
          match size with Full -> (128, 400) | Quick -> (32, 12)
        in
        let st = Gen.parallel_links links in
        let latencies = seeded_latencies (Rng.create ~seed ()) links in
        fun () ->
          let inst =
            Instance.create ~graph:st.graph ~latencies ~commodities:(single st)
              ()
          in
          let policy = Policy.uniform_linear inst in
          plain inst
            (config ~policy
               ~staleness:(Driver.Stale (Common.safe_period inst policy))
               ~phases ~steps:20)
            (Common.biased_start inst));
    judge = report;
  }

let fresh_grid =
  {
    name = "fresh_grid";
    lemma4 = true;
    generate =
      (fun size ~seed ->
        let side, phases =
          match size with Full -> (4, 500) | Quick -> (3, 10)
        in
        let st = Gen.grid ~width:side ~height:side in
        let latencies =
          seeded_latencies (Rng.create ~seed ()) (Digraph.edge_count st.graph)
        in
        fun () ->
          let inst =
            Instance.create ~graph:st.graph ~latencies ~commodities:(single st)
              ()
          in
          plain inst
            (config
               ~policy:(Policy.best_response_approx inst ~c:4.)
               ~staleness:Driver.Fresh ~phases ~steps:20)
            (Common.biased_start inst));
    judge =
      (fun spans state r ->
        (* routesim solves the reference equilibrium before reporting. *)
        let fw = Frank_wolfe.equilibrium ~spans r.final_instance in
        { (report spans state r) with reference = Some fw });
  }

let colgen_dag =
  {
    name = "colgen_dag";
    lemma4 = true;
    generate =
      (fun size ~seed ->
        let layers, width, phases =
          match size with Full -> (66, 16, 200) | Quick -> (10, 6, 20)
        in
        let rng = Rng.create ~seed () in
        let st =
          Gen.layered_skips ~skip_prob:0.05 ~rng ~layers ~width ~edge_prob:0.6
        in
        let latencies =
          seeded_latencies rng (Digraph.edge_count st.graph)
        in
        fun () ->
          let pool =
            Path_pool.create ~tolerance:1e-9 ~graph:st.graph ~latencies
              ~commodities:(single st) ()
          in
          let inst = Path_pool.instance pool in
          (* E18's policy: ell_max bounds the whole implicit path set,
             whose paths have at most [layers + 1] edges. *)
          let d = float_of_int (layers + 1) in
          let worst_edge =
            Array.fold_left
              (fun acc l -> Float.max acc (Latency.eval l 1.))
              0. latencies
          in
          let policy =
            Policy.make ~sampling:Sampling.Uniform
              ~migration:(Migration.Linear { ell_max = d *. worst_edge })
          in
          let alpha = Option.get (Policy.alpha policy) in
          let beta = Instance.beta inst in
          let t =
            if beta = 0. || alpha = 0. then 1.
            else Float.min 1. (1. /. (4. *. d *. alpha *. beta))
          in
          {
            (plain inst
               (config ~policy ~staleness:(Driver.Stale t) ~phases ~steps:20)
               (Flow.concentrated inst ~on:(fun _ -> 0)))
            with
            colgen = Some pool;
          });
    judge =
      (fun _spans state r ->
        {
          unsat_volume =
            Path_pool.unsatisfied_volume (Option.get state.colgen)
              r.final_instance r.final_flow ~delta:0.5;
          reference = None;
        });
  }

let outage_small =
  {
    name = "outage_small";
    (* Faults and outages break Lemma 4's hypotheses. *)
    lemma4 = false;
    generate =
      (fun size ~seed ->
        let phases = match size with Full -> 10_000 | Quick -> 400 in
        let st = Gen.grid ~width:4 ~height:4 in
        let rng = Rng.create ~seed () in
        let latencies = seeded_latencies rng (Digraph.edge_count st.graph) in
        let faults =
          Faults.make ~drop:0.1 ~partial:0.1 ~noise:0.2 ~noise_sigma:0.3
            ~outage:0.03 ~outage_mttr:4. ~seed:(Rng.int rng 1_000_000)
            ~outage_seed:(Rng.int rng 1_000_000) ()
        in
        let commodities =
          [
            Commodity.make ~src:0 ~dst:15 ~demand:0.5;
            Commodity.make ~src:1 ~dst:14 ~demand:0.25;
            Commodity.make ~src:4 ~dst:11 ~demand:0.25;
          ]
        in
        fun () ->
          let inst = Instance.create ~graph:st.graph ~latencies ~commodities () in
          let policy = Policy.uniform_linear inst in
          {
            (plain inst
               (config ~policy
                  ~staleness:(Driver.Stale (Common.safe_period inst policy))
                  ~phases ~steps:12)
               (Common.biased_start inst))
            with
            faults = Faults.plan faults;
            guard = Some Guard.repair;
          });
    judge = report;
  }

let all = [ stale_wide; fresh_grid; colgen_dag; outage_small ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
