(* routesim: run a rerouting policy on a built-in topology in the
   bulletin-board model and report convergence measurements. *)

open Cmdliner
open Staleroute_wardrop
open Staleroute_dynamics
open Staleroute_experiments
module Table = Staleroute_util.Table
module Pool = Staleroute_util.Pool
module Rng = Staleroute_util.Rng
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics
module Trace_export = Staleroute_obs.Trace_export
module Report = Staleroute_obs.Report
module Span = Staleroute_obs.Span

type policy_spec =
  | Smooth of (Instance.t -> Policy.t)
  | Best_response_exact

let parse_policy spec =
  match Topologies.split_spec (String.lowercase_ascii spec) with
  | "uniform-linear", None -> Ok (Smooth Policy.uniform_linear)
  | "replicator", None -> Ok (Smooth Policy.replicator)
  | "logit", arg -> (
      match Option.bind arg float_of_string_opt with
      | Some c when c > 0. ->
          Ok (Smooth (fun inst -> Policy.best_response_approx inst ~c))
      | _ -> Error "logit requires a positive parameter, e.g. logit:5")
  | "better-response", None ->
      Ok (Smooth (fun _ -> Policy.better_response ~sampling:Sampling.Uniform))
  | "frv", None -> Ok (Smooth (fun _ -> Policy.frv ()))
  | "best-response", None -> Ok Best_response_exact
  | name, _ -> Error (Printf.sprintf "unknown policy %S" name)

let policy_doc =
  "Policy: uniform-linear, replicator, logit:C, better-response, frv, \
   best-response."

(* The init spec is validated once; the flow is materialised per run so
   "random" can draw from the run's own pre-split seed. *)
let parse_init = function
  | "uniform" -> Ok `Uniform
  | "worst" -> Ok `Worst
  | "biased" -> Ok `Biased
  | "random" -> Ok `Random
  | s -> Error (Printf.sprintf "unknown initial flow %S" s)

let init_flow inst ~seed = function
  | `Uniform -> Flow.uniform inst
  | `Worst -> Common.worst_start inst
  | `Biased -> Common.biased_start inst
  | `Random -> Flow.random inst (Rng.create ~seed ())

(* Observability plumbing shared by both run modes: a memory buffer
   backs --trace/--summary, a live registry backs --metrics/--summary.
   Each run owns its buffer and registry, so concurrent runs never
   share a sink. *)
type obs = {
  trace_file : string option;
  show_metrics : bool;
  show_summary : bool;
  buffer : Probe.Memory.buffer option;
  probe : Probe.t;
  registry : Metrics.t;
  spans : Span.recorder;
}

let make_obs ~trace_file ~show_metrics ~show_summary ~show_profile =
  let buffer =
    if trace_file <> None || show_summary then Some (Probe.Memory.create ())
    else None
  in
  let probe =
    match buffer with Some b -> Probe.Memory.probe b | None -> Probe.null
  in
  let registry =
    if show_metrics || show_summary then Metrics.create () else Metrics.null
  in
  let spans = if show_profile then Span.create () else Span.null in
  { trace_file; show_metrics; show_summary; buffer; probe; registry; spans }

let finish_obs ~out obs =
  (match (obs.buffer, obs.trace_file) with
  | Some b, Some file ->
      let oc = open_out file in
      Trace_export.write_trace oc (Probe.Memory.events b);
      close_out oc;
      Printf.bprintf out "trace written    : %s (%d events)\n" file
        (Probe.Memory.length b)
  | _ -> ());
  if obs.show_metrics then begin
    Buffer.add_string out
      (Table.to_string (Metrics.to_table (Metrics.snapshot obs.registry)));
    Buffer.add_char out '\n'
  end;
  (match obs.buffer with
  | Some b when obs.show_summary ->
      Buffer.add_string out
        (Report.to_string
           (Report.of_events
              ~snapshot:(Metrics.snapshot obs.registry)
              (Probe.Memory.events b)))
  | _ -> ());
  if Span.enabled obs.spans then begin
    Buffer.add_string out (Table.to_string (Span.to_table (Span.profile obs.spans)));
    Buffer.add_char out '\n'
  end

let run_smooth inst policy_of ~period ~phases ~steps ~init ~delta ~eps ~csv
    ~faults ~guard ~colgen ~resume ~checkpoint ~fingerprint ~obs ~out =
  let policy = policy_of inst in
  let staleness, t_label =
    match period with
    | `Fresh -> (Driver.Fresh, "fresh")
    | `Auto -> (
        match Policy.safe_update_period inst policy with
        | Some t_star ->
            let t = Float.min t_star 1. in
            (Driver.Stale t, Printf.sprintf "%.6g (auto = min(T*,1))" t)
        | None ->
            (* Not alpha-smooth (e.g. frv): fall back to the
               elasticity-based period. *)
            let t = Float.min (Policy.elastic_update_period inst) 1. in
            (Driver.Stale t, Printf.sprintf "%.6g (auto = min(T_e,1))" t))
    | `Fixed t -> (Driver.Stale t, Printf.sprintf "%.6g" t)
  in
  (* Resuming: replay the checkpoint's trace prefix into this run's
     buffer, so the finished trace is byte-identical to an
     uninterrupted run's. *)
  (match resume with
  | Some c -> Array.iter (Probe.emit obs.probe) c.Checkpoint.events
  | None -> ());
  let checkpoint_every, on_checkpoint =
    match checkpoint with
    | None -> (0, None)
    | Some (path, every) ->
        ( every,
          Some
            (fun snapshot ->
              Checkpoint.save ~path
                {
                  Checkpoint.fingerprint;
                  snapshot;
                  events =
                    (match obs.buffer with
                    | Some b -> Probe.Memory.events b
                    | None -> [||]);
                }) )
  in
  let result =
    Common.run ~probe:obs.probe ~metrics:obs.registry ~spans:obs.spans ~faults
      ?guard ?colgen
      ?from:(Option.map (fun c -> c.Checkpoint.snapshot) resume)
      ~checkpoint_every ?on_checkpoint inst policy staleness ~phases
      ~steps_per_phase:steps ~init ()
  in
  (* All post-run analysis runs over the *final* instance: without
     column generation it is the input instance; with it the records
     are normalized to the grown dimension. *)
  let finst = result.Driver.final_instance in
  let snapshots = Common.phase_start_flows result in
  let eq = Frank_wolfe.equilibrium ~spans:obs.spans finst in
  Printf.bprintf out "policy           : %s\n" (Policy.name policy);
  Printf.bprintf out "update period    : %s\n" t_label;
  if not (Faults.is_null faults) then
    Printf.bprintf out "faults           : %s\n"
      (Faults.to_string (Faults.spec faults));
  (match guard with
  | Some g -> Printf.bprintf out "guard            : %s\n" (Guard.to_string g)
  | None -> ());
  (match colgen with
  | Some cg ->
      Printf.bprintf out "colgen           : tol=%g, active paths %d -> %d\n"
        (Path_pool.tolerance cg) (Instance.path_count inst)
        (Instance.path_count finst)
  | None -> ());
  (match Policy.safe_update_period inst policy with
  | Some t_star -> Printf.bprintf out "safe period T*   : %.6g\n" t_star
  | None -> Printf.bprintf out "safe period T*   : none (policy not smooth)\n");
  Printf.bprintf out "phases           : %d\n" phases;
  Printf.bprintf out "potential  start : %.6g\n"
    result.Driver.records.(0).Driver.start_potential;
  Printf.bprintf out "potential  final : %.6g\n" result.Driver.final_potential;
  Printf.bprintf out "potential  PHI*  : %.6g\n" eq.Frank_wolfe.objective;
  Printf.bprintf out "wardrop gap      : %.6g\n"
    (Equilibrium.wardrop_gap finst result.Driver.final_flow);
  Printf.bprintf out "bad rounds       : %d (delta=%g, eps=%g)\n"
    (Convergence.bad_rounds finst Convergence.Strict ~delta ~eps snapshots)
    delta eps;
  Printf.bprintf out "oscillating      : %b\n"
    (Convergence.is_oscillating snapshots);
  if csv then begin
    Buffer.add_string out "phase,time,potential,virtual_gain,delta_phi\n";
    Array.iter
      (fun r ->
        Printf.bprintf out "%d,%.6g,%.8g,%.8g,%.8g\n" r.Driver.index
          r.Driver.start_time r.Driver.start_potential r.Driver.virtual_gain
          r.Driver.delta_phi)
      result.Driver.records
  end;
  finish_obs ~out obs

let run_best_response inst ~t ~phases ~delta ~eps ~csv ~obs ~out =
  let init = Common.biased_start inst in
  let orbit =
    Span.record obs.spans "best_response_orbit" (fun () ->
        Best_response.run inst ~update_period:t ~phases ~init)
  in
  (* The exact orbit bypasses Driver; synthesise the equivalent phase
     events so --trace/--summary cover this mode too.  The virtual gain
     is not defined for the closed-form orbit: recorded as nan. *)
  if Probe.enabled obs.probe then
    for k = 0 to phases - 1 do
      let time = float_of_int k *. t in
      Probe.emit obs.probe (Probe.Board_repost { time });
      Probe.emit obs.probe
        (Probe.Phase_start
           { index = k; time; potential = orbit.Best_response.potentials.(k) });
      Probe.emit obs.probe
        (Probe.Phase_end
           {
             index = k;
             time = time +. t;
             potential = orbit.Best_response.potentials.(k + 1);
             virtual_gain = Float.nan;
             delta_phi =
               orbit.Best_response.potentials.(k + 1)
               -. orbit.Best_response.potentials.(k);
           })
    done;
  let last = orbit.Best_response.phase_starts.(phases) in
  Printf.bprintf out "policy           : best-response (exact per-phase orbit)\n";
  Printf.bprintf out "update period    : %.6g\n" t;
  Printf.bprintf out "phases           : %d\n" phases;
  Printf.bprintf out "potential  start : %.6g\n"
    orbit.Best_response.potentials.(0);
  Printf.bprintf out "potential  final : %.6g\n"
    orbit.Best_response.potentials.(phases);
  Printf.bprintf out "wardrop gap      : %.6g\n"
    (Equilibrium.wardrop_gap inst last);
  Printf.bprintf out "bad rounds       : %d (delta=%g, eps=%g)\n"
    (Convergence.bad_rounds inst Convergence.Strict ~delta ~eps
       orbit.Best_response.phase_starts)
    delta eps;
  Printf.bprintf out "oscillating      : %b\n"
    (Convergence.is_oscillating orbit.Best_response.phase_starts);
  if csv then begin
    Buffer.add_string out "phase,time,potential\n";
    Array.iteri
      (fun k phi ->
        Printf.bprintf out "%d,%.6g,%.8g\n" k (float_of_int k *. t) phi)
      orbit.Best_response.potentials
  end;
  finish_obs ~out obs

let main topology policy period phases steps init delta eps csv trace_file
    show_metrics show_summary show_profile runs jobs seed faults_str guard_str
    checkpoint_file checkpoint_every resume_file colgen_tol =
  let reject msg =
    prerr_endline msg;
    exit 2
  in
  if runs < 1 then reject "--runs expects a positive integer";
  if jobs < 1 then reject "-j expects a positive integer";
  let faults_spec =
    match Faults.of_string faults_str with
    | Ok s -> s
    | Error e -> reject e
  in
  let guard =
    match guard_str with
    | None -> None
    | Some s -> (
        match Guard.of_string s with
        | Ok g -> Some g
        | Error e -> reject e)
  in
  if checkpoint_every < 1 then reject "--checkpoint-every expects K >= 1";
  if checkpoint_file <> None || resume_file <> None then begin
    if runs > 1 then reject "--checkpoint/--resume require --runs 1"
  end;
  let policy_str = String.lowercase_ascii policy in
  match Topologies.parse topology with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok full_inst -> (
      (* With --colgen the run starts from the pool's shortest-path seed
         instance instead of the enumerated one; the enumerated
         instance only supplied the graph, latencies and commodities. *)
      let colgen =
        match colgen_tol with
        | None -> None
        | Some tol -> (
            let graph = Instance.graph full_inst in
            let latencies =
              Array.init
                (Staleroute_graph.Digraph.edge_count graph)
                (Instance.latency full_inst)
            in
            let commodities =
              List.init
                (Instance.commodity_count full_inst)
                (Instance.commodity full_inst)
            in
            match
              Path_pool.create ~tolerance:tol ~graph ~latencies ~commodities
                ()
            with
            | pool -> Some pool
            | exception Invalid_argument m -> reject ("--colgen: " ^ m))
      in
      let inst =
        match colgen with
        | Some cg -> Path_pool.instance cg
        | None -> full_inst
      in
      match (parse_policy policy, parse_init init) with
      | Error e, _ | _, Error e ->
          prerr_endline e;
          exit 2
      | Ok policy, Ok init_spec ->
          let t_best_response =
            (* Validate before fanning out: nothing may exit inside a
               pool task. *)
            match (policy, period) with
            | Best_response_exact, `Fixed t -> Some t
            | Best_response_exact, `Auto -> Some 1.
            | Best_response_exact, `Fresh ->
                prerr_endline
                  "best-response requires a positive update period";
                exit 2
            | Smooth _, _ -> None
          in
          let faults = Faults.plan faults_spec in
          (match policy with
          | Best_response_exact ->
              (* The exact orbit bypasses Driver entirely. *)
              if not (Faults.is_null faults) then
                reject "best-response: --faults is not supported";
              if guard <> None then
                reject "best-response: --guard is not supported";
              if checkpoint_file <> None || resume_file <> None then
                reject "best-response: --checkpoint/--resume are not supported";
              if colgen <> None then
                reject "best-response: --colgen is not supported"
          | Smooth _ -> ());
          (* The fingerprint pins everything that shapes the trajectory;
             a checkpoint resumed under a different configuration would
             silently diverge, so --resume refuses on mismatch. *)
          let fingerprint =
            let period_str =
              match period with
              | `Auto -> "auto"
              | `Fresh -> "fresh"
              | `Fixed t -> Printf.sprintf "%.17g" t
            in
            Printf.sprintf
              "routesim/1 topology=%s policy=%s period=%s phases=%d steps=%d \
               init=%s seed=%d faults=%s guard=%s colgen=%s"
              topology policy_str period_str phases steps init seed
              (Faults.to_string faults_spec)
              (match guard with Some g -> Guard.to_string g | None -> "off")
              (match colgen_tol with
              | Some tol -> Printf.sprintf "%.17g" tol
              | None -> "off")
          in
          let resume =
            match resume_file with
            | None -> None
            | Some path -> (
                match Checkpoint.load ~path with
                | Error e -> reject ("routesim: cannot resume: " ^ e)
                | Ok c ->
                    if not (String.equal c.Checkpoint.fingerprint fingerprint)
                    then
                      reject
                        (Printf.sprintf
                           "routesim: checkpoint fingerprint mismatch:\n\
                           \  checkpoint: %s\n\
                           \  current   : %s" c.Checkpoint.fingerprint
                           fingerprint)
                    else Some c)
          in
          let checkpoint =
            Option.map (fun f -> (f, checkpoint_every)) checkpoint_file
          in
          Format.printf "instance         : %a@." Instance.pp inst;
          (* Per-run trace sinks: a single live --trace file cannot be
             shared by concurrent runs, so with --runs N each run
             buffers its events and writes FILE.runK. *)
          let per_run_trace k =
            match trace_file with
            | None -> None
            | Some f when runs = 1 -> Some f
            | Some f -> Some (Printf.sprintf "%s.run%d" f k)
          in
          if jobs > 1 && trace_file <> None then
            prerr_endline
              "routesim: warning: --trace with -j > 1: runs record into \
               per-run buffers and write one file per run (FILE.runK).";
          (* Seeds are split before any task is submitted, so the flow
             each run draws is independent of pool width. *)
          let seeds = Rng.split_seeds (Rng.create ~seed ()) runs in
          let run_one k =
            let out = Buffer.create 1024 in
            if runs > 1 then
              Printf.bprintf out "\n--- run %d/%d (seed %d) ---\n" (k + 1)
                runs seeds.(k);
            let obs =
              make_obs ~trace_file:(per_run_trace k) ~show_metrics
                ~show_summary ~show_profile
            in
            (match (policy, t_best_response) with
            | Smooth policy_of, _ ->
                run_smooth inst policy_of ~period ~phases ~steps
                  ~init:(init_flow inst ~seed:seeds.(k) init_spec)
                  ~delta ~eps ~csv ~faults ~guard ~colgen ~resume ~checkpoint
                  ~fingerprint ~obs ~out
            | Best_response_exact, Some t ->
                run_best_response inst ~t ~phases ~delta ~eps ~csv ~obs ~out
            | Best_response_exact, None -> assert false);
            Buffer.contents out
          in
          let outputs =
            if jobs > 1 && runs > 1 then
              Pool.with_pool ~domains:(min jobs runs) (fun pool ->
                  Pool.parallel_map ~pool run_one (Array.init runs Fun.id))
            else Array.init runs run_one
          in
          Array.iter print_string outputs)

let period_conv =
  let parse = function
    | "auto" -> Ok `Auto
    | "fresh" -> Ok `Fresh
    | s -> (
        match float_of_string_opt s with
        | Some t when t > 0. -> Ok (`Fixed t)
        | _ -> Error (`Msg (Printf.sprintf "bad period %S" s)))
  in
  let print ppf = function
    | `Auto -> Format.fprintf ppf "auto"
    | `Fresh -> Format.fprintf ppf "fresh"
    | `Fixed t -> Format.fprintf ppf "%g" t
  in
  Arg.conv (parse, print)

let cmd =
  let topology =
    Arg.(
      value
      & opt string "braess"
      & info [ "t"; "topology" ] ~docv:"SPEC" ~doc:Topologies.doc)
  in
  let policy =
    Arg.(
      value
      & opt string "replicator"
      & info [ "p"; "policy" ] ~docv:"POLICY" ~doc:policy_doc)
  in
  let period =
    Arg.(
      value
      & opt period_conv `Auto
      & info [ "T"; "period" ] ~docv:"T"
          ~doc:
            "Bulletin-board update period: a float, 'auto' (= min(T*, 1)) \
             or 'fresh' (always current information).")
  in
  let phases =
    Arg.(value & opt int 200 & info [ "n"; "phases" ] ~docv:"N"
         ~doc:"Number of update periods to simulate.")
  in
  let steps =
    Arg.(value & opt int 20 & info [ "steps" ] ~docv:"K"
         ~doc:"Integrator steps per phase.")
  in
  let init =
    Arg.(value & opt string "biased" & info [ "init" ] ~docv:"INIT"
         ~doc:
           "Initial flow: uniform, worst, biased or random (random draws \
            per run from --seed).")
  in
  let delta =
    Arg.(value & opt float 0.1 & info [ "delta" ] ~docv:"D"
         ~doc:"Latency slack of the approximate equilibrium report.")
  in
  let eps =
    Arg.(value & opt float 0.1 & info [ "eps" ] ~docv:"E"
         ~doc:"Volume slack of the approximate equilibrium report.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ]
         ~doc:"Print a per-phase CSV trace after the summary.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.jsonl"
          ~doc:
            "Record structured probe events (phase starts/ends, board \
             re-posts, kernel rebuilds, step batches) and write them as \
             JSONL to $(docv).  Same-seed runs produce byte-identical \
             files.  With --runs N each run writes $(docv).runK.")
  in
  let show_metrics =
    Arg.(value & flag & info [ "metrics" ]
         ~doc:
           "Collect run metrics (board re-posts, kernel rebuilds, \
            derivative evaluations, per-phase potential statistics) and \
            print them as a table.")
  in
  let show_summary =
    Arg.(value & flag & info [ "summary" ]
         ~doc:
           "Print an end-of-run report: event counts, per-phase \
            potential-change distribution and an ASCII sparkline of the \
            potential gap.")
  in
  let show_profile =
    Arg.(value & flag & info [ "profile" ]
         ~doc:
           "Record hierarchical wall-clock timing spans (board posts, \
            kernel builds/updates, integration, colgen pricing, guard \
            checks, checkpoint writes) and print the span profile.  \
            Wall-clock only: profiles are never part of the byte-identity \
            surfaces (--trace output is unaffected).")
  in
  let runs =
    Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N"
         ~doc:
           "Repeat the simulation $(docv) times (reports printed in run \
            order).  Per-run seeds are split from --seed up front, so \
            results are independent of -j.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"J"
         ~doc:
           "Run up to $(docv) runs concurrently (domains).  Output, \
            --metrics included, is byte-identical to -j 1 (--profile \
            timings are wall-clock and vary run to run).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
         ~doc:"Base RNG seed for --init random (split across --runs).")
  in
  let faults =
    Arg.(
      value
      & opt string "none"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject seeded bulletin-board faults and topology outages: \
             comma-separated drop=P, delay=P:F, partial=P:F, noise=P:SIGMA, \
             outage=RATE:MTTR:SEED (per-edge per-phase failure rate and mean \
             downtime in phases; MTTR and SEED optional), seed=N (e.g. \
             'drop=0.3,outage=0.05:4,seed=7').  Faulted runs stay \
             deterministic per seed.")
  in
  let guard =
    Arg.(
      value
      & opt (some string) None
      & info [ "guard" ] ~docv:"POLICY"
          ~doc:
            "Check numeric health at phase boundaries: 'fail-fast', \
             'repair' or 'ignore', optionally with a tolerance suffix \
             (e.g. 'repair:1e-9').")
  in
  let checkpoint_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a resumable checkpoint (JSON) to $(docv) every \
             --checkpoint-every phases.  Requires --runs 1.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 25
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:"Checkpoint cadence in phases (default 25).")
  in
  let resume_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by --checkpoint.  The run \
             configuration must match the checkpoint's fingerprint; the \
             resumed trace and report are byte-identical to an \
             uninterrupted run's.  Requires --runs 1.")
  in
  let colgen =
    Arg.(
      value
      & opt ~vopt:(Some 1e-9) (some float) None
      & info [ "colgen" ] ~docv:"TOL"
          ~doc:
            "Column generation: instead of enumerating the topology's path \
             sets, seed each commodity with its shortest path and grow the \
             active set lazily by pricing the posted (stale) boards — a \
             column is admitted when it undercuts the cheapest active path \
             by more than $(docv) (default 1e-9).  Growth events appear in \
             --trace, a paths_grown counter in --metrics, and checkpoints \
             record the grown set so --resume replays it bit-for-bit.")
  in
  let term =
    Term.(
      const main $ topology $ policy $ period $ phases $ steps $ init $ delta
      $ eps $ csv $ trace_file $ show_metrics $ show_summary $ show_profile
      $ runs $ jobs $ seed $ faults $ guard $ checkpoint_file
      $ checkpoint_every $ resume_file $ colgen)
  in
  Cmd.v
    (Cmd.info "routesim" ~version:"1.0.0"
       ~doc:
         "Simulate adaptive rerouting with stale information in the Wardrop \
          model (Fischer & Vocking, PODC 2005)")
    term

(* A filesystem failure anywhere (unwritable --trace/--checkpoint path,
   a vanished working directory) is an expected operational error, not a
   bug: report it in one line instead of a backtrace. *)
let () =
  match Cmd.eval ~catch:false cmd with
  | code -> exit code
  | exception Sys_error msg ->
      prerr_endline ("routesim: " ^ msg);
      exit 2
