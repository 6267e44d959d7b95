(* Benchmark and experiment harness.

   Usage:
     main.exe              run every experiment (full size) and print tables
     main.exe e1 .. e17    run a single experiment
     main.exe micro        run the Bechamel microbenchmarks (also writes
                           the BENCH_rates.json perf trajectory)
     main.exe bench-smoke  tiny-quota kernel-vs-reference comparison only;
                           writes BENCH_rates.json (also `dune build
                           @bench-smoke`)
     main.exe trace-smoke  instrumented mini-runs checking probe event
                           counts and the allocation-free disabled path;
                           writes BENCH_trace.json (also `dune build
                           @trace-smoke`)
     main.exe fault-smoke  robustness contract: fault-plan purity, faulted
                           trace determinism, guard policies on a NaN
                           workload, checkpoint/resume byte-identity and
                           the T/(1-p) period inflation; writes
                           BENCH_faults.json (also `dune build
                           @fault-smoke`)
     main.exe colgen-smoke
                           column-generation ground truth: small-instance
                           differential vs the enumerating core, full-seed
                           bitwise trajectory identity, a 10^4+-edge
                           layered-DAG growth run, and checkpoint/resume
                           with mid-run growth; writes BENCH_colgen.json
                           (also `dune build @colgen-smoke`)
     main.exe parallel-smoke
                           determinism checks for the domain pool (pooled
                           output and traces must be byte-identical to
                           sequential) plus pooled-vs-sequential timings;
                           writes BENCH_parallel.json (also `dune build
                           @parallel-smoke`); add "full" to also time the
                           full E1-E17 suite at -j 1 vs -j N
     main.exe obs-smoke    observability contract: trace diff/read-back,
                           disabled-span allocation freedom, span profile
                           sanity and the comparator's tolerance classes;
                           writes BENCH_obs.json (also `dune build
                           @obs-smoke`)
     main.exe compare BASELINE_DIR [FRESH_DIR]
                           regression gate: compare committed BENCH_*.json
                           baselines against freshly written bench output
                           (default FRESH_DIR: _build/default/bench);
                           timings advisory, contract fields exact
     main.exe all          experiments + microbenchmarks
   Options: "quick" uses the reduced parameter sets; "-j N" runs
   experiments across N domains (default
   Domain.recommended_domain_count; output stays byte-identical to
   -j 1); "metrics" instruments every experiment and prints its metric
   snapshot (a single-name metrics or profile run ignores -j: the
   ambient registry is domain-local, so the instrumented experiment
   runs on one domain); "profile" records wall-clock timing spans and
   prints the per-experiment span profile; "csv=DIR" exports tables;
   "json=FILE" redirects the perf trajectory. *)

open Staleroute_experiments
module Table = Staleroute_util.Table
module Pool = Staleroute_util.Pool
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics
module Trace_export = Staleroute_obs.Trace_export
module Trace_reader = Staleroute_obs.Trace_reader
module Span = Staleroute_obs.Span

(* Provenance block stamped into every BENCH_*.json.  utc_written and
   git_commit are wall-clock/host facts, not measurements: the bench
   comparator ignores every meta.* key except meta.schema, and the
   deterministic snapshot checks never read BENCH files. *)
let bench_schema = 1

let meta_block () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  let utc =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
      t.Unix.tm_sec
  in
  let commit =
    match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
    | exception _ -> None
    | ic -> (
        let line =
          match input_line ic with
          | l -> Some (String.trim l)
          | exception End_of_file -> None
        in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, Some c when c <> "" -> Some c
        | _ -> None)
  in
  Printf.sprintf "  \"meta\": { \"schema\": %d, \"utc_written\": %S%s },\n"
    bench_schema utc
    (match commit with
    | Some c -> Printf.sprintf ", \"git_commit\": %S" c
    | None -> "")

(* When [csv_dir] is set ("csv=DIR" argument), every printed table is
   also written to DIR/<slug>.csv. *)
let csv_dir = ref None

let slug_of_title title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    title
  |> fun s ->
  (* Collapse runs of dashes and trim. *)
  let buf = Buffer.create (String.length s) in
  let last_dash = ref true in
  String.iter
    (fun c ->
      if c = '-' then begin
        if not !last_dash then Buffer.add_char buf '-';
        last_dash := true
      end
      else begin
        Buffer.add_char buf c;
        last_dash := false
      end)
    s;
  let s = Buffer.contents buf in
  if String.length s > 60 then String.sub s 0 60 else s

(* Experiments render into per-experiment buffers (not straight to
   stdout) so a pooled run can emit them in canonical order — stdout is
   byte-identical at any -j.  CSV files are still written from inside
   the task: paths are distinct per table, contents deterministic. *)
let buffer_tables out tables =
  List.iter
    (fun table ->
      Buffer.add_string out (Table.to_string table);
      Buffer.add_char out '\n';
      match !csv_dir with
      | None -> ()
      | Some dir ->
          let path =
            Filename.concat dir (slug_of_title (Table.title table) ^ ".csv")
          in
          let oc = open_out path in
          output_string oc (Table.to_csv table);
          output_char oc '\n';
          close_out oc;
          Buffer.add_string out (Printf.sprintf "(csv written to %s)\n" path))
    tables

let buffer_figures out figures =
  List.iter
    (fun fig ->
      Buffer.add_string out fig;
      Buffer.add_char out '\n')
    figures

(* Sweep experiments accept the pool and fan their grid points out; the
   rest run sequentially inside their task. *)
let experiments =
  [
    ( "e1",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E1_oscillation.tables ~quick ());
        buffer_figures out (E1_oscillation.figures ~quick ()) );
    ( "e2",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E2_fresh_convergence.tables ~quick ()) );
    ( "e3",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E3_stale_convergence.tables ~quick ()) );
    ( "e4",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E4_potential_inequality.tables ~quick ()) );
    ( "e5",
      fun ~quick ~pool ~out ->
        buffer_tables out (E5_uniform_scaling.tables ?pool ~quick ()) );
    ( "e6",
      fun ~quick ~pool ~out ->
        buffer_tables out (E6_proportional_scaling.tables ?pool ~quick ()) );
    ( "e7",
      fun ~quick ~pool ~out ->
        buffer_tables out (E7_delta_eps_scaling.tables ?pool ~quick ()) );
    ( "e8",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E8_finite_population.tables ~quick ()) );
    ( "e9",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E9_ablation.tables ~quick ()) );
    ( "e10",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E10_elastic_policy.tables ~quick ()) );
    ( "e11",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E11_stale_vs_random.tables ~quick ()) );
    ( "e12",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E12_multicommodity.tables ~quick ()) );
    ( "e13",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E13_convergence_rate.tables ~quick ()) );
    ( "e14",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E14_synchronous_rounds.tables ~quick ()) );
    ( "e15",
      fun ~quick ~pool:_ ~out ->
        buffer_tables out (E15_polled_information.tables ~quick ()) );
    ( "e16",
      fun ~quick ~pool ~out ->
        buffer_tables out (E16_phase_diagram.tables ?pool ~quick ());
        buffer_figures out (E16_phase_diagram.figures ?pool ~quick ()) );
    ( "e17",
      fun ~quick ~pool ~out ->
        buffer_tables out (E17_unreliable_board.tables ?pool ~quick ()) );
    ( "e18",
      fun ~quick ~pool ~out ->
        buffer_tables out (E18_colgen_scaling.tables ?pool ~quick ()) );
    ( "e19",
      fun ~quick ~pool ~out ->
        buffer_tables out (E19_edge_outage.tables ?pool ~quick ()) );
  ]

let with_metrics = ref false

(* "profile": every Common.run reports wall-clock spans into an ambient
   recorder, printed per experiment.  Span data is wall-clock only and
   never feeds a byte-identity surface, so this flag (unlike plain runs)
   makes no determinism promise about the profile table itself. *)
let with_profile = ref false

(* Render one experiment to a string.  Runs entirely inside the calling
   domain; ambient instrumentation is domain-local, so concurrent
   experiments on other domains keep their own registries. *)
let run_experiment ~quick ~pool name =
  match List.assoc_opt name experiments with
  | Some f ->
      let out = Buffer.create 4096 in
      Buffer.add_string out
        (Printf.sprintf "\n### Experiment %s ###\n"
           (String.uppercase_ascii name));
      if !with_metrics || !with_profile then begin
        (* Ambient instrumentation: every Common.run inside the
           experiment reports into this registry. *)
        let metrics = Metrics.create () in
        let spans = if !with_profile then Span.create () else Span.null in
        Common.set_instrumentation ~spans ~probe:Probe.null ~metrics ();
        Fun.protect
          ~finally:(fun () -> Common.clear_instrumentation ())
          (fun () -> f ~quick ~pool ~out);
        if !with_metrics then
          buffer_tables out
            [
              Metrics.to_table ~title:(name ^ " metrics")
                (Metrics.snapshot metrics);
            ];
        if !with_profile then
          buffer_tables out [ Span.to_table (Span.profile spans) ]
      end
      else f ~quick ~pool ~out;
      Buffer.contents out
  | None ->
      Printf.eprintf "unknown experiment %S\n" name;
      exit 2

(* Render the single-name invocation at parallelism [jobs]: the one
   experiment gets the pool itself so its sweep fans out.  Exception:
   metrics and profile modes.  The ambient registry installed by
   Common.set_instrumentation is domain-local (Domain.DLS), so sweep
   cells executed on worker domains would report into Metrics.null and
   the snapshot would silently depend on scheduling.  An instrumented
   experiment therefore runs entirely on the domain holding the
   registry — sequential, but correct and byte-identical to -j 1
   (parallel-smoke check 3 pins this down). *)
let run_single_experiment ~quick ~jobs name =
  if jobs > 1 && not (!with_metrics || !with_profile) then
    Pool.with_pool ~domains:jobs (fun pool ->
        run_experiment ~quick ~pool name)
  else run_experiment ~quick ~pool:None name

(* Run a list of experiments at parallelism [jobs] and print their
   outputs in list order.  A single experiment gets the pool itself
   (its sweep fans out); several experiments fan out across the pool,
   each sequential inside its task — the pool rejects nesting, and this
   split keeps every domain busy in both shapes. *)
let run_experiments ~quick ~jobs names =
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S\n" name;
        exit 2
      end)
    names;
  match names with
  | [ name ] ->
      print_string (run_single_experiment ~quick ~jobs name);
      flush stdout
  | _ when jobs > 1 ->
      Pool.with_pool ~domains:jobs (fun pool ->
          Pool.parallel_map ~pool
            (fun name -> run_experiment ~quick ~pool:None name)
            (Array.of_list names))
      |> Array.iter print_string;
      flush stdout
  | _ ->
      List.iter
        (fun name ->
          print_string (run_experiment ~quick ~pool:None name);
          flush stdout)
        names

(* --- Bechamel microbenchmarks of the hot paths --- *)

(* The latency of link [j] of [m] parallel links in the rate
   benchmarks. *)
let parallel_link_latency m j =
  Staleroute_latency.Latency.affine
    ~slope:(float_of_int (1 + (j mod 3)))
    ~intercept:(0.3 *. float_of_int j /. float_of_int m)

(* A multi-commodity load-balancing workload for the rate benchmarks:
   two commodities splitting the unit demand over the same [m] parallel
   links, i.e. [2 * m] paths in the global index. *)
let multicommodity_parallel m =
  let open Staleroute_wardrop in
  let st = Staleroute_graph.Gen.parallel_links m in
  let latencies = Array.init m (parallel_link_latency m) in
  Instance.create ~graph:st.Staleroute_graph.Gen.graph ~latencies
    ~commodities:
      (List.init 2 (fun _ ->
           Commodity.make ~src:st.Staleroute_graph.Gen.src
             ~dst:st.Staleroute_graph.Gen.dst ~demand:0.5))
    ()

(* [multicommodity_parallel]'s twin whose commodities share no link:
   each splits its half of the demand over its own [m] parallel links
   (nodes 0 -> 1 and 2 -> 3), again [2 * m] paths.  A transfer inside
   one commodity leaves the other's paths untouched. *)
let disjoint_parallel m =
  let open Staleroute_wardrop in
  let links src dst = List.init m (fun _ -> (src, dst)) in
  let graph =
    Staleroute_graph.Digraph.create ~nodes:4 ~edges:(links 0 1 @ links 2 3)
  in
  let latencies =
    Array.init (2 * m) (fun e -> parallel_link_latency m (e mod m))
  in
  Instance.create ~graph ~latencies
    ~commodities:
      [
        Commodity.make ~src:0 ~dst:1 ~demand:0.5;
        Commodity.make ~src:2 ~dst:3 ~demand:0.5;
      ]
    ()

(* The end-to-end benchmark's fresh_grid instance at seed 1: a 4x4 grid
   (20 paths, 24 edges) over E18's seeded affine latencies, whose
   reference solve the Bechamel micro times. *)
let fresh_grid_instance () =
  let open Staleroute_wardrop in
  let st = Staleroute_graph.Gen.grid ~width:4 ~height:4 in
  let rng = Staleroute_util.Rng.create ~seed:1 () in
  let latencies =
    Array.init (Staleroute_graph.Digraph.edge_count st.Staleroute_graph.Gen.graph)
      (fun _ ->
        Staleroute_latency.Latency.affine
          ~slope:(0.25 +. Staleroute_util.Rng.float rng 1.5)
          ~intercept:(Staleroute_util.Rng.float rng 0.3))
  in
  Instance.create ~graph:st.Staleroute_graph.Gen.graph ~latencies
    ~commodities:
      [
        Commodity.single ~src:st.Staleroute_graph.Gen.src
          ~dst:st.Staleroute_graph.Gen.dst;
      ]
    ()

let ols_estimate results name =
  let found = ref None in
  Hashtbl.iter
    (fun key ols ->
      if key = name then
        match Bechamel.Analyze.OLS.estimates ols with
        | Some (x :: _) -> found := Some x
        | _ -> ())
    results;
  !found

(* A feasible flow whose {e shares} differ from [flow] on every path —
   the board delta the kernel-update benchmarks alternate against.  A
   uniform rescale would be useless here: projection would normalise it
   straight back to [flow] and the "update" under test would detect
   zero dirty entries and do nothing. *)
let perturb_shares inst flow =
  Staleroute_wardrop.Flow.project inst
    (Staleroute_util.Vec.init
       (Staleroute_wardrop.Instance.path_count inst)
       (fun i ->
         Staleroute_util.Vec.get flow i
         *. (1. +. (0.01 *. float_of_int (1 + (i mod 3))))))

(* Words allocated on the minor heap per in-place Euler step, measured
   by differencing two step counts so per-call setup cancels out. *)
let euler_words_per_step inst kernel =
  let open Staleroute_wardrop in
  let open Staleroute_dynamics in
  let pool =
    Staleroute_util.Vec.Pool.create ~dim:(Instance.path_count inst)
  in
  let measure steps =
    let f = Flow.uniform inst in
    Integrator.integrate_phase_into Integrator.Euler inst ~pool
      ~deriv_into:(Rate_kernel.flow_derivative_into kernel)
      ~f ~tau:0.001 ~steps:1;
    let before = Gc.minor_words () in
    Integrator.integrate_phase_into Integrator.Euler inst ~pool
      ~deriv_into:(Rate_kernel.flow_derivative_into kernel)
      ~f ~tau:0.001 ~steps;
    Gc.minor_words () -. before
  in
  (measure 1001 -. measure 1) /. 1000.

(* The perf-trajectory benchmark: reference vs compiled rate kernel on
   the multi-commodity workload.  Prints a table and exports
   BENCH_rates.json so later PRs can track regressions. *)
let bench_rates ~quota_s ~json_path () =
  let open Bechamel in
  let open Staleroute_wardrop in
  let open Staleroute_dynamics in
  let m = 20 in
  let inst = multicommodity_parallel m in
  let policy = Policy.uniform_linear inst in
  let flow = Flow.uniform inst in
  let board = Bulletin_board.post inst ~time:0. flow in
  let kernel = Rate_kernel.build inst policy ~board in
  let dst = Staleroute_util.Vec.create (Instance.path_count inst) 0. in
  (* The update benchmark alternates between two posted boards whose
     flows differ everywhere — the fresh-mode worst case, where every
     latency moves each step and the incremental path degenerates to a
     full (but specialized, allocation-free) refresh. *)
  let flow2 = perturb_shares inst flow in
  let board2 = Bulletin_board.post inst ~time:1e-3 flow2 in
  let upd_kernel = Rate_kernel.build inst policy ~board in
  let flip = ref false in
  (* The sparse-delta workload: a two-path transfer within one
     commodity.  Two flow entries move and two edges go dirty — the
     steady-state fresh-mode step, where [repost] + [update ?changed]
     replace the full post and the dense refresh. *)
  let transfer flow =
    let g = Staleroute_util.Vec.copy flow in
    Staleroute_util.Vec.set g 0 (Staleroute_util.Vec.get g 0 -. 0.004);
    Staleroute_util.Vec.set g 1 (Staleroute_util.Vec.get g 1 +. 0.004);
    g
  in
  let flow3 = transfer flow in
  let delta = Bulletin_board.delta () in
  (* The kernel side runs on [disjoint_parallel]: on [inst] both
     commodities cross the two dirty links, so the transfer changes
     paths of both and [update ?changed] recompiles every block.  Here
     only the moving commodity's two paths change. *)
  let sparse_inst = disjoint_parallel m in
  let sparse_policy = Policy.uniform_linear sparse_inst in
  let sparse_flow = Flow.uniform sparse_inst in
  let sparse_board = Bulletin_board.post sparse_inst ~time:0. sparse_flow in
  let sparse_delta = Bulletin_board.delta () in
  let sparse_board3 =
    Bulletin_board.repost ~delta:sparse_delta sparse_inst ~prev:sparse_board
      ~time:1e-3 (transfer sparse_flow)
  in
  (* The changed set is symmetric (same paths move bits in either
     direction), so one copy serves the whole flip chain. *)
  let changed =
    ( Array.sub
        (Bulletin_board.changed_paths sparse_delta)
        0
        (Bulletin_board.changed_count sparse_delta),
      Bulletin_board.changed_count sparse_delta )
  in
  let sparse_kernel =
    Rate_kernel.build sparse_inst sparse_policy ~board:sparse_board
  in
  let sflip = ref false in
  let tests =
    [
      Test.make ~name:"reference"
        (Staged.stage (fun () ->
             ignore (Rates.flow_derivative inst policy ~board flow)));
      Test.make ~name:"kernel"
        (Staged.stage (fun () ->
             Rate_kernel.flow_derivative_into kernel flow ~dst));
      Test.make ~name:"kernel-build"
        (Staged.stage (fun () ->
             ignore (Rate_kernel.build inst policy ~board)));
      Test.make ~name:"kernel-update"
        (Staged.stage (fun () ->
             flip := not !flip;
             ignore
               (Rate_kernel.update upd_kernel
                  ~board:(if !flip then board2 else board))));
      Test.make ~name:"board-post"
        (Staged.stage (fun () ->
             ignore (Bulletin_board.post inst ~time:0. flow)));
      (let prev = ref board in
       let rflip = ref false in
       Test.make ~name:"board-repost"
         (Staged.stage (fun () ->
              rflip := not !rflip;
              prev :=
                Bulletin_board.repost ~delta inst ~prev:!prev ~time:0.
                  (if !rflip then flow3 else flow))));
      Test.make ~name:"kernel-update-sparse"
        (Staged.stage (fun () ->
             sflip := not !sflip;
             ignore
               (Rate_kernel.update ~changed sparse_kernel
                  ~board:(if !sflip then sparse_board3 else sparse_board))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let raw =
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"rates" ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let get name =
    match ols_estimate results ("rates " ^ name) with
    | Some ns -> ns
    | None -> nan
  in
  let ref_ns = get "reference" in
  let kern_ns = get "kernel" in
  let build_ns = get "kernel-build" in
  let update_ns = get "kernel-update" in
  let post_ns = get "board-post" in
  let repost_ns = get "board-repost" in
  let upd_sparse_ns = get "kernel-update-sparse" in
  (* Fresh information re-posts (and recompiles) every integrator step,
     so a fresh-mode step costs one board snapshot, one kernel
     recompile and one evaluation.  The steady-state step is the
     sparse-delta pipeline (repost + sub-row update); the rebuild
     baseline is the full post + from-scratch build it replaced. *)
  let fresh_sps = 1e9 /. (repost_ns +. upd_sparse_ns +. kern_ns) in
  let rebuild_sps = 1e9 /. (build_ns +. kern_ns) in
  let fresh_speedup =
    (post_ns +. build_ns +. kern_ns)
    /. (repost_ns +. upd_sparse_ns +. kern_ns)
  in
  let repost_speedup = post_ns /. repost_ns in
  let words = euler_words_per_step inst kernel in
  let paths = Instance.path_count inst in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Rate kernel vs reference (%d paths, 2 commodities)" paths)
      ~columns:[ "path"; "ns/op" ]
  in
  Table.add_row table [ "reference flow_derivative"; Printf.sprintf "%.1f" ref_ns ];
  Table.add_row table [ "kernel flow_derivative"; Printf.sprintf "%.1f" kern_ns ];
  Table.add_row table [ "kernel build (per board post)"; Printf.sprintf "%.1f" build_ns ];
  Table.add_row table
    [ "kernel update (incremental)"; Printf.sprintf "%.1f" update_ns ];
  Table.add_row table
    [ "kernel update (sparse delta)"; Printf.sprintf "%.1f" upd_sparse_ns ];
  Table.add_row table [ "board post (full)"; Printf.sprintf "%.1f" post_ns ];
  Table.add_row table
    [ "board repost (sparse delta)"; Printf.sprintf "%.1f" repost_ns ];
  Table.add_row table
    [ "repost speedup"; Printf.sprintf "%.1fx" repost_speedup ];
  Table.add_row table [ "speedup"; Printf.sprintf "%.1fx" (ref_ns /. kern_ns) ];
  Table.add_row table
    [
      "fresh-mode steps/s (repost+update+eval)"; Printf.sprintf "%.0f" fresh_sps;
    ];
  Table.add_row table
    [ "fresh-mode amortized speedup"; Printf.sprintf "%.1fx" fresh_speedup ];
  Table.add_row table
    [ "euler step minor words"; Printf.sprintf "%.2f" words ];
  Table.print table;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
     %s\
    \  \"benchmark\": \"flow_derivative_rates\",\n\
    \  \"cores_available\": %d,\n\
    \  \"instance\": { \"paths\": %d, \"commodities\": %d },\n\
    \  \"ns_per_op\": {\n\
    \    \"reference\": %.2f,\n\
    \    \"kernel\": %.2f,\n\
    \    \"kernel_build\": %.2f,\n\
    \    \"kernel_update\": %.2f,\n\
    \    \"kernel_update_sparse\": %.2f,\n\
    \    \"board_post\": %.2f,\n\
    \    \"board_repost\": %.2f\n\
    \  },\n\
    \  \"repost_ns_per_op\": %.2f,\n\
    \  \"repost_speedup\": %.2f,\n\
    \  \"speedup_kernel_vs_reference\": %.2f,\n\
    \  \"fresh_mode\": { \"steps_per_sec\": %.0f, \
     \"rebuild_steps_per_sec\": %.0f, \"amortized_speedup\": %.2f },\n\
    \  \"euler_minor_words_per_step\": %.2f\n\
     }\n"
    (meta_block ())
    (Domain.recommended_domain_count ())
    paths
    (Instance.commodity_count inst)
    ref_ns kern_ns build_ns update_ns upd_sparse_ns post_ns repost_ns
    repost_ns repost_speedup (ref_ns /. kern_ns) fresh_sps
    rebuild_sps fresh_speedup words;
  close_out oc;
  Printf.printf "(perf trajectory written to %s)\n%!" json_path

let micro () =
  let open Bechamel in
  let open Staleroute_wardrop in
  let open Staleroute_dynamics in
  let inst = Common.parallel 16 in
  let braess = Common.braess () in
  let fw_grid = fresh_grid_instance () in
  let flow = Flow.uniform inst in
  let board = Bulletin_board.post inst ~time:0. flow in
  let policy = Policy.replicator inst in
  let grid = Staleroute_graph.Gen.grid ~width:6 ~height:6 in
  let weights =
    Array.init
      (Staleroute_graph.Digraph.edge_count grid.Staleroute_graph.Gen.graph)
      (fun e -> 1. +. float_of_int (e mod 7))
  in
  let kernel = Rate_kernel.build inst policy ~board in
  let dst = Staleroute_util.Vec.create (Instance.path_count inst) 0. in
  let pool = Staleroute_util.Vec.Pool.create ~dim:(Instance.path_count inst) in
  let tests =
    [
      Test.make ~name:"flow-derivative reference (16 paths)"
        (Staged.stage (fun () ->
             ignore (Rates.flow_derivative inst policy ~board flow)));
      Test.make ~name:"flow-derivative kernel (16 paths)"
        (Staged.stage (fun () ->
             Rate_kernel.flow_derivative_into kernel flow ~dst));
      Test.make ~name:"rate-kernel build (16 paths)"
        (Staged.stage (fun () ->
             ignore (Rate_kernel.build inst policy ~board)));
      (let flow2 = perturb_shares inst flow in
       let board2 = Bulletin_board.post inst ~time:1e-3 flow2 in
       let uk = Rate_kernel.build inst policy ~board in
       let flip = ref false in
       Test.make ~name:"rate-kernel update (16 paths)"
         (Staged.stage (fun () ->
              flip := not !flip;
              ignore
                (Rate_kernel.update uk
                   ~board:(if !flip then board2 else board)))));
      Test.make ~name:"board post (16 paths)"
        (Staged.stage (fun () ->
             ignore (Bulletin_board.post inst ~time:0. flow)));
      (let g = Staleroute_util.Vec.copy flow in
       Staleroute_util.Vec.set g 0 (Staleroute_util.Vec.get g 0 -. 0.004);
       Staleroute_util.Vec.set g 1 (Staleroute_util.Vec.get g 1 +. 0.004);
       let delta = Bulletin_board.delta () in
       let prev = ref board in
       let flip = ref false in
       Test.make ~name:"board repost sparse (16 paths)"
         (Staged.stage (fun () ->
              flip := not !flip;
              prev :=
                Bulletin_board.repost ~delta inst ~prev:!prev ~time:0.
                  (if !flip then g else flow))));
      (let x = Staleroute_util.Vec.create 256 1.5 in
       let y = Staleroute_util.Vec.create 256 0.5 in
       Test.make ~name:"vec axpy (256)"
         (Staged.stage (fun () ->
              Staleroute_util.Vec.axpy ~alpha:1e-9 ~x ~y)));
      (let x = Staleroute_util.Vec.create 256 1.5 in
       let y = Staleroute_util.Vec.create 256 0.5 in
       Test.make ~name:"vec dot (256)"
         (Staged.stage (fun () -> ignore (Staleroute_util.Vec.dot x y))));
      Test.make ~name:"potential (16 paths)"
        (Staged.stage (fun () -> ignore (Potential.phi inst flow)));
      Test.make ~name:"rk4 phase step reference (16 paths)"
        (Staged.stage (fun () ->
             let deriv g = Rates.flow_derivative inst policy ~board g in
             ignore
               (Integrator.integrate_phase Integrator.Rk4 inst ~deriv
                  ~f0:flow ~tau:0.1 ~steps:1)));
      Test.make ~name:"rk4 phase step kernel in-place (16 paths)"
        (Staged.stage (fun () ->
             let f = Staleroute_util.Vec.copy flow in
             Integrator.integrate_phase_into Integrator.Rk4 inst ~pool
               ~deriv_into:(Rate_kernel.flow_derivative_into kernel)
               ~f ~tau:0.1 ~steps:1));
      Test.make ~name:"dijkstra (6x6 grid)"
        (Staged.stage (fun () ->
             ignore
               (Staleroute_graph.Dijkstra.run grid.Staleroute_graph.Gen.graph
                  ~weights ~src:0)));
      Test.make ~name:"path enumeration (braess)"
        (Staged.stage (fun () ->
             ignore
               (Staleroute_graph.Path_enum.all_simple_paths
                  (Instance.graph braess) ~src:0 ~dst:3)));
      Test.make ~name:"reference equilibrium solve (4x4 grid)"
        (Staged.stage (fun () -> ignore (Frank_wolfe.equilibrium fw_grid)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let raw =
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"staleroute" ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Table.create ~title:"Microbenchmarks (monotonic clock)"
      ~columns:[ "benchmark"; "ns/run" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Printf.sprintf "%.1f" x
        | _ -> "n/a"
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) -> Table.add_row table [ name; ns ])
    (List.sort compare !rows);
  Table.print table

(* --- Instrumented smoke runs: probe/metric ground truth --- *)

(* Tiny instrumented runs asserting the telemetry contract: event
   counts match the board-posting cadence (once per phase under Stale,
   once per integrator step under Fresh), the per-phase potentials in
   the event stream equal the driver's records, same-config traces are
   byte-identical, and the disabled-probe Euler hot path still
   allocates nothing.  Writes BENCH_trace.json; exits non-zero on any
   failure. *)
let trace_smoke ~json_path () =
  let open Staleroute_wardrop in
  let open Staleroute_dynamics in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "  %-48s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  (* Stale information on the E1 oscillation workload. *)
  let inst = Common.two_link ~beta:4. in
  let policy = Policy.uniform_linear inst in
  let phases = 6 and steps = 8 in
  let config =
    {
      Driver.policy;
      staleness = Driver.Stale 0.1;
      phases;
      steps_per_phase = steps;
      scheme = Integrator.Rk4;
    }
  in
  let init = Common.biased_start inst in
  let capture () =
    let buf = Probe.Memory.create () in
    let metrics = Metrics.create () in
    let result =
      Driver.run ~probe:(Probe.Memory.probe buf) ~metrics inst config ~init
    in
    (buf, metrics, result)
  in
  let buf, metrics, result = capture () in
  let count buf p = Probe.Memory.count buf p in
  let stale_reposts =
    count buf (function Probe.Board_repost _ -> true | _ -> false)
  in
  let stale_rebuilds =
    count buf (function Probe.Kernel_rebuild _ -> true | _ -> false)
  in
  check "stale: board reposts = phases" (stale_reposts = phases);
  check "stale: kernel rebuilds = phases" (stale_rebuilds = phases);
  check "stale: rebuild counter agrees with events"
    (Metrics.count (Metrics.counter metrics "kernel_rebuilds")
    = stale_rebuilds);
  let phis =
    Array.of_list
      (List.filter_map
         (function
           | Probe.Phase_start { potential; _ } -> Some potential | _ -> None)
         (Array.to_list (Probe.Memory.events buf)))
  in
  let phi_agree = ref (Array.length phis = Array.length result.Driver.records) in
  Array.iteri
    (fun i (r : Driver.phase_record) ->
      if
        !phi_agree
        && Float.abs (phis.(i) -. r.Driver.start_potential) > 1e-12
      then phi_agree := false)
    result.Driver.records;
  check "stale: phase_start phi = driver records (1e-12)" !phi_agree;
  let buf2, _, _ = capture () in
  let s1 = Trace_export.events_to_string (Probe.Memory.events buf) in
  let s2 = Trace_export.events_to_string (Probe.Memory.events buf2) in
  let identical = String.equal s1 s2 in
  check "stale: same-config trace byte-identical" identical;
  (* Fresh information re-posts every integrator step. *)
  let binst = Common.braess () in
  let fphases = 3 and fsteps = 5 in
  let fconfig =
    {
      Driver.policy = Policy.uniform_linear binst;
      staleness = Driver.Fresh;
      phases = fphases;
      steps_per_phase = fsteps;
      scheme = Integrator.Euler;
    }
  in
  let fbuf = Probe.Memory.create () in
  ignore
    (Driver.run ~probe:(Probe.Memory.probe fbuf) binst fconfig
       ~init:(Flow.uniform binst));
  let fresh_rebuilds =
    count fbuf (function Probe.Kernel_rebuild _ -> true | _ -> false)
  in
  check "fresh: kernel rebuilds = phases * steps"
    (fresh_rebuilds = fphases * fsteps);
  (* The disabled-probe hot path must stay allocation-free (the
     measurement is only meaningful under the native compiler). *)
  let words =
    let board = Bulletin_board.post inst ~time:0. (Flow.uniform inst) in
    euler_words_per_step inst (Rate_kernel.build inst policy ~board)
  in
  let native =
    match Sys.backend_type with Sys.Native -> true | _ -> false
  in
  check "probes off: euler step minor words = 0"
    ((not native) || words = 0.);
  let pass = !failures = 0 in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
     %s\
    \  \"benchmark\": \"trace_smoke\",\n\
    \  \"cores_available\": %d,\n\
    \  \"stale\": { \"phases\": %d, \"board_reposts\": %d, \
     \"kernel_rebuilds\": %d },\n\
    \  \"fresh\": { \"phases\": %d, \"steps_per_phase\": %d, \
     \"kernel_rebuilds\": %d },\n\
    \  \"trace_byte_identical\": %b,\n\
    \  \"euler_minor_words_per_step_probes_off\": %.2f,\n\
    \  \"pass\": %b\n\
     }\n"
    (meta_block ())
    (Domain.recommended_domain_count ())
    phases stale_reposts stale_rebuilds fphases fsteps fresh_rebuilds
    identical words pass;
  close_out oc;
  Printf.printf "(trace smoke written to %s)\n%!" json_path;
  if not pass then exit 1

(* --- Fault smoke: fault plans, guardrails, checkpoint/resume --- *)

(* Ground truth for the robustness layer: fault draws are pure in
   (seed, index); faulted traces are seed-deterministic; a NaN-producing
   policy trips the guard (raise under fail-fast, finite flow under
   repair); a run resumed from a mid-run snapshot replays the identical
   trace; dropped re-posts inflate the effective update period by
   about 1/(1-p); and topology outages (DESIGN.md §14) keep every
   byte-identity contract — same-seed outage traces identical, resume
   across an outage boundary identical, a zero-rate plan bitwise inert
   — while a full partition trips the guard (raise under fail-fast,
   finite flow under ignore).  Writes BENCH_faults.json; exits
   non-zero on any failure. *)
let fault_smoke ~json_path () =
  let open Staleroute_dynamics in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "  %-48s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  (* 1. Fault plans are pure functions of (seed, index). *)
  let spec =
    Faults.make ~drop:0.25 ~delay:0.15 ~partial:0.15 ~noise:0.15 ~seed:42 ()
  in
  let draws plan = Array.init 1000 (fun i -> Faults.fault_at plan ~index:i) in
  let d1 = draws (Faults.plan spec) and d2 = draws (Faults.plan spec) in
  check "fault_at: pure in (seed, index)" (d1 = d2);
  let kind_count p =
    Array.to_list d1 |> List.filter (fun f -> Option.is_some f && p f)
    |> List.length
  in
  let drops = kind_count (fun f -> f = Some Faults.Drop) in
  let delays =
    kind_count (function Some (Faults.Delay _) -> true | _ -> false)
  in
  let partials =
    kind_count (function Some (Faults.Partial _) -> true | _ -> false)
  in
  let noises =
    kind_count (function Some (Faults.Noise _) -> true | _ -> false)
  in
  check "fault_at: every kind fires on 1000 draws"
    (drops > 0 && delays > 0 && partials > 0 && noises > 0);
  check "fault_at: null plan never fires"
    (Array.for_all Option.is_none (draws (Faults.plan Faults.none)));
  (* 2. Faulted same-seed runs produce byte-identical traces. *)
  let inst = Common.two_link ~beta:4. in
  let policy = Policy.uniform_linear inst in
  let config =
    {
      Driver.policy;
      staleness = Driver.Stale 0.25;
      phases = 12;
      steps_per_phase = 8;
      scheme = Integrator.Rk4;
    }
  in
  let init = Common.biased_start inst in
  let faulted ?from ?checkpoint_every ?on_checkpoint () =
    let buf = Probe.Memory.create () in
    let result =
      Driver.run
        ~probe:(Probe.Memory.probe buf)
        ~faults:(Faults.plan spec) ?from ?checkpoint_every ?on_checkpoint
        inst config ~init
    in
    (buf, result)
  in
  let buf_a, result_a = faulted () in
  let buf_b, _ = faulted () in
  let to_string buf = Trace_export.events_to_string (Probe.Memory.events buf) in
  check "faulted trace: same seed byte-identical"
    (String.equal (to_string buf_a) (to_string buf_b));
  let injected =
    Probe.Memory.count buf_a (function
      | Probe.Fault_injected _ -> true
      | _ -> false)
  in
  check "faulted trace: faults actually injected" (injected > 0);
  (* 3. Checkpoint/resume replays the identical trace. *)
  let saved = ref None in
  let _, _ =
    faulted
      ~checkpoint_every:5
      ~on_checkpoint:(fun snap ->
        if !saved = None then
          saved := Some (snap, Array.copy (Probe.Memory.events buf_a)))
      ()
  in
  let resume_identical, resume_flow_identical =
    match !saved with
    | None -> (false, false)
    | Some (snap, _) ->
        (* The prefix comes from the uninterrupted run: events of the
           first [next_phase] phases are exactly those emitted before
           the checkpoint fired (same seed, same plan). *)
        let buf_c, result_c = faulted ~from:snap () in
        let full = Probe.Memory.events buf_a in
        let tail = Probe.Memory.events buf_c in
        let prefix_len = Array.length full - Array.length tail in
        let stitched =
          Array.append (Array.sub full 0 prefix_len) tail
        in
        ( prefix_len >= 0
          && String.equal (to_string buf_a)
               (Trace_export.events_to_string stitched),
          Array.for_all2
            (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            (Staleroute_util.Vec.to_array result_a.Driver.final_flow)
            (Staleroute_util.Vec.to_array result_c.Driver.final_flow) )
  in
  check "resume: stitched trace byte-identical" resume_identical;
  check "resume: final flow bit-identical" resume_flow_identical;
  (* 4. Numeric guardrails against a NaN-producing custom policy. *)
  let nan_policy =
    Policy.make ~sampling:Sampling.Uniform
      ~migration:
        (Migration.Custom
           {
             name = "nan-after-start";
             prob = (fun ~ell_p:_ ~ell_q:_ -> Float.nan);
             alpha = None;
           })
  in
  let nan_config = { config with Driver.policy = nan_policy; phases = 3 } in
  let fail_fast_raised =
    match Driver.run ~guard:Guard.fail_fast inst nan_config ~init with
    | exception Guard.Unhealthy d -> d.Guard.index = 0
    | _ -> false
  in
  check "guard fail-fast: raises Unhealthy at first boundary"
    fail_fast_raised;
  let repair_metrics = Metrics.create () in
  let repaired =
    Driver.run ~metrics:repair_metrics ~guard:Guard.repair inst nan_config
      ~init
  in
  let repairs =
    Metrics.count (Metrics.counter repair_metrics "guard_repairs")
  in
  let final_finite =
    Staleroute_util.Vec.for_all Float.is_finite
      repaired.Driver.final_flow
  in
  check "guard repair: run completes with finite flow"
    (final_finite && repairs > 0);
  (* 5. Dropped re-posts inflate the effective period by ~1/(1-p). *)
  let drop_metrics = Metrics.create () in
  let drop_phases = 400 in
  ignore
    (Driver.run ~metrics:drop_metrics
       ~faults:(Faults.plan (Faults.make ~drop:0.5 ~seed:42 ()))
       inst
       { config with Driver.phases = drop_phases }
       ~init);
  let posts =
    Metrics.count (Metrics.counter drop_metrics "board_reposts")
  in
  let rebuilds =
    Metrics.count (Metrics.counter drop_metrics "kernel_rebuilds")
  in
  let eff = float_of_int drop_phases /. float_of_int posts in
  check "drop 0.5: effective period in [1.6, 2.4] x T"
    (eff >= 1.6 && eff <= 2.4);
  check "drop: kernel rebuilt only on successful posts" (rebuilds = posts);
  (* 6. Topology outages: byte-identity under edge failures, resume
     across an outage boundary, zero-rate inertness, partition guard. *)
  let inst4 = Common.parallel 4 in
  let config4 =
    {
      Driver.policy = Policy.uniform_linear inst4;
      staleness = Driver.Stale 0.25;
      phases = 20;
      steps_per_phase = 8;
      scheme = Integrator.Rk4;
    }
  in
  let init4 = Common.biased_start inst4 in
  let outage_run ?faults ?from ?checkpoint_every ?on_checkpoint () =
    let buf = Probe.Memory.create () in
    let result =
      Driver.run
        ~probe:(Probe.Memory.probe buf)
        ?faults ~guard:Guard.ignore_ ?from ?checkpoint_every ?on_checkpoint
        inst4 config4 ~init:init4
    in
    (buf, result)
  in
  let outage_faults () =
    Faults.plan
      (Faults.make ~drop:0.25 ~outage:0.2 ~outage_mttr:3. ~outage_seed:7
         ~seed:42 ())
  in
  let buf_o1, result_o1 = outage_run ~faults:(outage_faults ()) () in
  let buf_o2, _ = outage_run ~faults:(outage_faults ()) () in
  check "outage trace: same seed byte-identical"
    (String.equal (to_string buf_o1) (to_string buf_o2));
  let edge_downs =
    Probe.Memory.count buf_o1 (function
      | Probe.Edge_down _ -> true
      | _ -> false)
  in
  let edge_ups =
    Probe.Memory.count buf_o1 (function
      | Probe.Edge_up _ -> true
      | _ -> false)
  in
  check "outage trace: edges fail and recover" (edge_downs > 0 && edge_ups > 0);
  let saved_o = ref None in
  let _, _ =
    outage_run ~faults:(outage_faults ()) ~checkpoint_every:7
      ~on_checkpoint:(fun snap -> if !saved_o = None then saved_o := Some snap)
      ()
  in
  let resume_outage_identical, resume_outage_flow_identical =
    match !saved_o with
    | None -> (false, false)
    | Some snap ->
        let buf_r, result_r = outage_run ~faults:(outage_faults ()) ~from:snap () in
        let full = Probe.Memory.events buf_o1 in
        let tail = Probe.Memory.events buf_r in
        let prefix_len = Array.length full - Array.length tail in
        let has_edge_event =
          Array.exists (function
            | Probe.Edge_down _ | Probe.Edge_up _ -> true
            | _ -> false)
        in
        let stitched = Array.append (Array.sub full 0 prefix_len) tail in
        ( prefix_len >= 0
          && has_edge_event (Array.sub full 0 prefix_len)
          && has_edge_event tail
          && String.equal (to_string buf_o1)
               (Trace_export.events_to_string stitched),
          Array.for_all2
            (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            (Staleroute_util.Vec.to_array result_o1.Driver.final_flow)
            (Staleroute_util.Vec.to_array result_r.Driver.final_flow) )
  in
  check "outage resume: outages on both sides of the snapshot, \
         stitched trace byte-identical"
    resume_outage_identical;
  check "outage resume: final flow bit-identical" resume_outage_flow_identical;
  let buf_clean, result_clean = outage_run () in
  let buf_zero, result_zero =
    outage_run
      ~faults:(Faults.plan (Faults.make ~outage:0. ~outage_mttr:7. ~outage_seed:99 ()))
      ()
  in
  let zero_rate_inert =
    String.equal (to_string buf_clean) (to_string buf_zero)
    && Array.for_all2
         (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
         (Staleroute_util.Vec.to_array result_clean.Driver.final_flow)
         (Staleroute_util.Vec.to_array result_zero.Driver.final_flow)
  in
  check "outage zero-rate: bitwise inert vs no plan at all" zero_rate_inert;
  let partition_faults () =
    Faults.plan (Faults.make ~outage:1. ~outage_mttr:4. ~outage_seed:7 ())
  in
  let partition_config = { config with Driver.phases = 6 } in
  let partition_fail_fast =
    match
      Driver.run ~guard:Guard.fail_fast ~faults:(partition_faults ()) inst
        partition_config ~init
    with
    | exception Guard.Unhealthy d ->
        d.Guard.cause = Guard.Network_partitioned && d.Guard.index = 0
    | _ -> false
  in
  check "partition: fail-fast raises Network_partitioned at index 0"
    partition_fail_fast;
  let partition_ignore_survives =
    match
      Driver.run ~guard:Guard.ignore_ ~faults:(partition_faults ()) inst
        partition_config ~init
    with
    | result ->
        Staleroute_util.Vec.for_all Float.is_finite result.Driver.final_flow
    | exception _ -> false
  in
  check "partition: ignore completes with finite flow"
    partition_ignore_survives;
  let pass = !failures = 0 in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
     %s\
    \  \"benchmark\": \"fault_smoke\",\n\
    \  \"cores_available\": %d,\n\
    \  \"plan_draws\": { \"drop\": %d, \"delay\": %d, \"partial\": %d, \
     \"noise\": %d },\n\
    \  \"faulted_events\": %d,\n\
    \  \"resume_trace_byte_identical\": %b,\n\
    \  \"resume_flow_bit_identical\": %b,\n\
    \  \"guard\": { \"fail_fast_raised\": %b, \"repairs\": %d },\n\
    \  \"drop_half\": { \"phases\": %d, \"posts\": %d, \
     \"effective_period\": %.3f },\n\
    \  \"outage\": { \"edge_downs\": %d, \"edge_ups\": %d, \
     \"trace_byte_identical\": %b, \"resume_across_outage_identical\": %b, \
     \"resume_flow_bit_identical\": %b, \"zero_rate_inert\": %b, \
     \"partition_fail_fast_raised\": %b, \"partition_ignore_survives\": %b \
     },\n\
    \  \"pass\": %b\n\
     }\n"
    (meta_block ())
    (Domain.recommended_domain_count ())
    drops delays partials noises injected resume_identical
    resume_flow_identical fail_fast_raised repairs drop_phases posts eff
    edge_downs edge_ups
    (String.equal (to_string buf_o1) (to_string buf_o2))
    resume_outage_identical resume_outage_flow_identical zero_rate_inert
    partition_fail_fast partition_ignore_survives pass;
  close_out oc;
  Printf.printf "(fault smoke written to %s)\n%!" json_path;
  if not pass then exit 1

(* --- Colgen smoke: column-generation ground truth --- *)

(* Ground truth for the column-generation core (DESIGN.md §11): on a
   small enumerable instance the lazily-grown run reaches the same
   equilibrium as the enumerating core (judged by unsatisfied volume
   and the Beckmann potential); a pool seeded with the Full path set
   produces a byte-identical trace and bit-identical flow to a plain
   run (growth never fires); a 10^4+-edge layered DAG runs a full
   stale-information trajectory through growth with an active set a
   vanishing fraction of the enumerable one; and checkpoint/resume
   replays mid-run growth byte-for-byte while a tampered grown-path
   record is refused.  Writes BENCH_colgen.json; exits non-zero on any
   failure. *)
let colgen_smoke ~json_path () =
  let open Staleroute_wardrop in
  let open Staleroute_dynamics in
  let module Gen = Staleroute_graph.Gen in
  let module Digraph = Staleroute_graph.Digraph in
  let module Path_enum = Staleroute_graph.Path_enum in
  let module Latency = Staleroute_latency.Latency in
  let module Rng = Staleroute_util.Rng in
  let module Vec = Staleroute_util.Vec in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "  %-56s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  (* The E18 recipe: seeded layered DAG, affine latencies, one unit
     commodity source->sink. *)
  let workload ~seed ~layers ~width ~edge_prob ~skip_prob =
    let rng = Rng.create ~seed () in
    let st = Gen.layered_skips ~skip_prob ~rng ~layers ~width ~edge_prob in
    let m = Digraph.edge_count st.Gen.graph in
    let latencies =
      Array.init m (fun _ ->
          Latency.affine
            ~slope:(0.25 +. Rng.float rng 1.5)
            ~intercept:(Rng.float rng 0.3))
    in
    (st, latencies)
  in
  (* Uniform sampling (proportional sampling cannot discover zero-flow
     grown columns) with ell_max bounded over the whole implicit path
     set, and the safe update period computed from it. *)
  let colgen_policy ~layers latencies =
    let worst =
      Array.fold_left
        (fun acc l -> Float.max acc (Latency.eval l 1.))
        0. latencies
    in
    Policy.make ~sampling:Sampling.Uniform
      ~migration:
        (Migration.Linear { ell_max = float_of_int (layers + 1) *. worst })
  in
  let period ~layers policy inst =
    let d = float_of_int (layers + 1) in
    let beta = Instance.beta inst in
    let alpha = Option.get (Policy.alpha policy) in
    if beta = 0. || alpha = 0. then 1.
    else Float.min 1. (1. /. (4. *. d *. alpha *. beta))
  in
  let config ~policy ~t ~phases ~steps =
    {
      Driver.policy;
      staleness = Driver.Stale t;
      phases;
      steps_per_phase = steps;
      scheme = Integrator.Rk4;
    }
  in
  (* 1. Small-instance differential: colgen equilibrium = enumerated
     equilibrium, judged by unsatisfied volume and the potential. *)
  let st, latencies =
    workload ~seed:5 ~layers:3 ~width:3 ~edge_prob:0.7 ~skip_prob:0.
  in
  let commodities =
    [ Commodity.single ~src:st.Gen.src ~dst:st.Gen.dst ]
  in
  let policy = colgen_policy ~layers:3 latencies in
  let full_pool =
    Path_pool.create ~seed:Path_pool.Full ~graph:st.Gen.graph ~latencies
      ~commodities ()
  in
  let full_inst = Path_pool.instance full_pool in
  let t = period ~layers:3 policy full_inst in
  let cfg = config ~policy ~t ~phases:400 ~steps:12 in
  let grow_pool =
    Path_pool.create ~graph:st.Gen.graph ~latencies ~commodities ()
  in
  let seed_inst = Path_pool.instance grow_pool in
  let colgen_result =
    Driver.run ~colgen:grow_pool seed_inst cfg
      ~init:(Flow.concentrated seed_inst ~on:(fun _ -> 0))
  in
  let enum_result =
    Driver.run full_inst cfg
      ~init:(Flow.concentrated full_inst ~on:(fun _ -> 0))
  in
  let delta = 0.25 in
  let colgen_unsat =
    Path_pool.unsatisfied_volume grow_pool
      colgen_result.Driver.final_instance colgen_result.Driver.final_flow
      ~delta
  in
  let enum_unsat =
    Equilibrium.unsatisfied_volume full_inst enum_result.Driver.final_flow
      ~delta
  in
  let phi_colgen =
    Potential.phi colgen_result.Driver.final_instance
      colgen_result.Driver.final_flow
  in
  let phi_enum = Potential.phi full_inst enum_result.Driver.final_flow in
  let phi_rel_diff =
    Float.abs (phi_colgen -. phi_enum) /. Float.max 1e-9 (Float.abs phi_enum)
  in
  let active_small =
    Instance.path_count colgen_result.Driver.final_instance
  in
  check "differential: colgen run delta-satisfied" (colgen_unsat <= 1e-3);
  check "differential: enumerated run delta-satisfied" (enum_unsat <= 1e-3);
  check "differential: potentials agree (rel <= 1e-2)"
    (phi_rel_diff <= 1e-2);
  check "differential: active set within enumerated"
    (active_small >= 1 && active_small <= Instance.path_count full_inst);
  (* 2. Full seed: colgen run is byte- and bit-identical to a plain
     run — every column is already active, so growth never fires. *)
  let run_full ?colgen () =
    let buf = Probe.Memory.create () in
    let result =
      Driver.run
        ~probe:(Probe.Memory.probe buf)
        ?colgen full_inst cfg ~init:(Flow.uniform full_inst)
    in
    (buf, result)
  in
  let buf_plain, result_plain = run_full () in
  let buf_colgen, result_colgen = run_full ~colgen:full_pool () in
  let to_string buf =
    Trace_export.events_to_string (Probe.Memory.events buf)
  in
  let growth_events buf =
    Probe.Memory.count buf (function
      | Probe.Path_growth _ -> true
      | _ -> false)
  in
  let full_seed_trace =
    String.equal (to_string buf_plain) (to_string buf_colgen)
  in
  let full_seed_flow =
    Array.for_all2
      (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
      (Vec.to_array result_plain.Driver.final_flow)
      (Vec.to_array result_colgen.Driver.final_flow)
  in
  check "full seed: trace byte-identical to plain run" full_seed_trace;
  check "full seed: final flow bit-identical" full_seed_flow;
  check "full seed: growth never fires" (growth_events buf_colgen = 0);
  (* 3. A layered DAG the enumerating core cannot represent: >= 10^4
     edges, astronomically many simple paths, and the active set stays
     a vanishing fraction of them while the run converges. *)
  let lst, llat =
    workload ~seed:22 ~layers:66 ~width:16 ~edge_prob:0.6 ~skip_prob:0.05
  in
  let lpool =
    Path_pool.create ~graph:lst.Gen.graph ~latencies:llat
      ~commodities:[ Commodity.single ~src:lst.Gen.src ~dst:lst.Gen.dst ]
      ()
  in
  let lpolicy = colgen_policy ~layers:66 llat in
  let lseed = Path_pool.instance lpool in
  let lt = period ~layers:66 lpolicy lseed in
  let lphases = 800 in
  let lmetrics = Metrics.create () in
  let lresult =
    Driver.run ~metrics:lmetrics ~colgen:lpool lseed
      (config ~policy:lpolicy ~t:lt ~phases:lphases ~steps:12)
      ~init:(Flow.concentrated lseed ~on:(fun _ -> 0))
  in
  let ledges = Digraph.edge_count lst.Gen.graph in
  let lenumerable =
    match
      Path_enum.count_paths_dag lst.Gen.graph ~src:lst.Gen.src
        ~dst:lst.Gen.dst
    with
    | Some n -> n
    | None -> Float.nan
  in
  let lactive = Instance.path_count lresult.Driver.final_instance in
  let lgrown = Metrics.count (Metrics.counter lmetrics "paths_grown") in
  let lunsat =
    Path_pool.unsatisfied_volume lpool lresult.Driver.final_instance
      lresult.Driver.final_flow ~delta:0.5
  in
  check "large DAG: >= 10^4 edges" (ledges >= 10_000);
  check "large DAG: enumerable set beyond 10^30" (lenumerable >= 1e30);
  check "large DAG: growth fired (active = 1 + grown)"
    (lgrown > 0 && lactive = 1 + lgrown);
  check "large DAG: active set vanishing fraction"
    (float_of_int lactive < 1e-3 *. lenumerable && lactive < 10_000);
  check "large DAG: run delta-satisfied (delta = 0.5)" (lunsat <= 1e-3);
  check "large DAG: final flow finite"
    (Vec.for_all Float.is_finite lresult.Driver.final_flow);
  (* 4. Checkpoint/resume with mid-run growth: the stitched trace is
     byte-identical (including Path_growth events), the final flow
     bit-identical, and a hand-edited grown-path record is refused. *)
  let rst, rlat =
    workload ~seed:19 ~layers:6 ~width:6 ~edge_prob:0.5 ~skip_prob:0.15
  in
  let rcommodities =
    [ Commodity.single ~src:rst.Gen.src ~dst:rst.Gen.dst ]
  in
  let rpolicy = colgen_policy ~layers:6 rlat in
  let make_rpool () =
    Path_pool.create ~graph:rst.Gen.graph ~latencies:rlat
      ~commodities:rcommodities ()
  in
  let rpool = make_rpool () in
  let rseed = Path_pool.instance rpool in
  let rt = period ~layers:6 rpolicy rseed in
  let rcfg = config ~policy:rpolicy ~t:rt ~phases:40 ~steps:8 in
  let rinit = Flow.concentrated rseed ~on:(fun _ -> 0) in
  let saved = ref None in
  let run_r ?from ?checkpoint_every ?on_checkpoint pool =
    let buf = Probe.Memory.create () in
    let result =
      Driver.run
        ~probe:(Probe.Memory.probe buf)
        ~colgen:pool ?from ?checkpoint_every ?on_checkpoint
        (Path_pool.instance pool) rcfg ~init:rinit
    in
    (buf, result)
  in
  let buf_r, result_r =
    run_r
      ~checkpoint_every:10
      ~on_checkpoint:(fun snap -> if !saved = None then saved := Some snap)
      rpool
  in
  check "resume: mid-run growth happened" (growth_events buf_r > 0);
  let resume_trace, resume_flow, snap_grown, tamper_refused =
    match !saved with
    | None -> (false, false, false, false)
    | Some snap ->
        let pool' = make_rpool () in
        let buf_c, result_c = run_r ~from:snap pool' in
        let full = Probe.Memory.events buf_r in
        let tail = Probe.Memory.events buf_c in
        let prefix_len = Array.length full - Array.length tail in
        let stitched = Array.append (Array.sub full 0 prefix_len) tail in
        let trace_ok =
          prefix_len >= 0
          && String.equal (to_string buf_r)
               (Trace_export.events_to_string stitched)
        in
        let flow_ok =
          Array.for_all2
            (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            (Vec.to_array result_r.Driver.final_flow)
            (Vec.to_array result_c.Driver.final_flow)
        in
        let m = Digraph.edge_count rst.Gen.graph in
        let tampered =
          {
            snap with
            Driver.grown_paths =
              List.map
                (fun (c, edges) ->
                  (c, Array.map (fun e -> (e + 1) mod m) edges))
                snap.Driver.grown_paths;
          }
        in
        let refused =
          snap.Driver.grown_paths <> []
          &&
          match run_r ~from:tampered (make_rpool ()) with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        (trace_ok, flow_ok, snap.Driver.grown_paths <> [], refused)
  in
  check "resume: snapshot records grown paths" snap_grown;
  check "resume: stitched trace byte-identical" resume_trace;
  check "resume: final flow bit-identical" resume_flow;
  check "resume: tampered grown paths refused" tamper_refused;
  let pass = !failures = 0 in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
     %s\
    \  \"benchmark\": \"colgen_smoke\",\n\
    \  \"cores_available\": %d,\n\
    \  \"differential\": { \"colgen_unsat\": %s, \"enum_unsat\": %s, \
     \"phi_rel_diff\": %s, \"active\": %d, \"enumerated\": %d },\n\
    \  \"full_seed\": { \"trace_byte_identical\": %b, \
     \"flow_bit_identical\": %b },\n\
    \  \"large_dag\": { \"edges\": %d, \"enumerable\": %.3e, \
     \"active\": %d, \"grown\": %d, \"unsat\": %s, \"phases\": %d },\n\
    \  \"resume\": { \"growth_events\": %d, \"trace_byte_identical\": \
     %b, \"flow_bit_identical\": %b, \"tamper_refused\": %b },\n\
    \  \"pass\": %b\n\
     }\n"
    (meta_block ())
    (Domain.recommended_domain_count ())
    (Staleroute_obs.Json.float_repr colgen_unsat)
    (Staleroute_obs.Json.float_repr enum_unsat)
    (Staleroute_obs.Json.float_repr phi_rel_diff)
    active_small
    (Instance.path_count full_inst)
    full_seed_trace full_seed_flow ledges lenumerable lactive lgrown
    (Staleroute_obs.Json.float_repr lunsat)
    lphases (growth_events buf_r) resume_trace resume_flow tamper_refused
    pass;
  close_out oc;
  Printf.printf "(colgen smoke written to %s)\n%!" json_path;
  if not pass then exit 1

(* --- Parallel smoke: pool determinism ground truth + timings --- *)

let wall_time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* Determinism checks for the domain-pool plumbing, each comparing a
   pooled run byte-for-byte against its sequential twin, plus the
   headline timing (pooled vs sequential E16-quick).  With [full],
   additionally times the full E1-E17 suite at -j 1 vs -j [jobs].
   Writes BENCH_parallel.json; exits non-zero on any determinism
   failure. *)
let parallel_smoke ~jobs ~full ~json_path () =
  let open Staleroute_dynamics in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "  %-56s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let width = max 2 jobs in
  (* 1. E16-quick: pooled output is byte-identical to sequential, and
     the wall-time comparison is the committed headline number. *)
  let render_e16 pool =
    let out = Buffer.create 4096 in
    buffer_tables out (E16_phase_diagram.tables ?pool ~quick:true ());
    buffer_figures out (E16_phase_diagram.figures ?pool ~quick:true ());
    Buffer.contents out
  in
  let e16_seq, e16_seq_s = wall_time (fun () -> render_e16 None) in
  let e16_pooled, e16_pooled_s =
    wall_time (fun () ->
        Pool.with_pool ~domains:width (fun pool -> render_e16 pool))
  in
  check
    (Printf.sprintf "e16-quick output byte-identical at -j %d" width)
    (String.equal e16_seq e16_pooled);
  (* 2. The multi-experiment fan-out (with metrics, exercising the
     domain-local ambient registries) is byte-identical to -j 1. *)
  let metric_pair pool_width =
    with_metrics := true;
    Fun.protect
      ~finally:(fun () -> with_metrics := false)
      (fun () ->
        let names = [| "e1"; "e16" |] in
        if pool_width <= 1 then
          Array.to_list
            (Array.map
               (fun nm -> run_experiment ~quick:true ~pool:None nm)
               names)
        else
          Pool.with_pool ~domains:pool_width (fun pool ->
              Array.to_list
                (Pool.parallel_map ~pool
                   (fun nm -> run_experiment ~quick:true ~pool:None nm)
                   names)))
  in
  check
    (Printf.sprintf "e1+e16 metrics snapshots byte-identical at -j %d" width)
    (metric_pair 1 = metric_pair width);
  (* 3. A single experiment in metrics mode through the top-level
     dispatch (`bench e16 metrics -j N`): the ambient registry is
     domain-local, so this path must not fan sweep cells out to worker
     domains — run_single_experiment forces ~pool:None under metrics,
     and the snapshot must match -j 1 byte for byte. *)
  let single_metric jobs =
    with_metrics := true;
    Fun.protect
      ~finally:(fun () -> with_metrics := false)
      (fun () -> run_single_experiment ~quick:true ~jobs "e16")
  in
  check
    (Printf.sprintf
       "single e16 metrics snapshot byte-identical at -j %d" width)
    (String.equal (single_metric 1) (single_metric width));
  (* 4. Traced driver runs fanned across the pool produce the same
     JSONL bytes as the sequential loop. *)
  let trace_configs =
    [| (4., 6); (2., 9); (8., 5); (3., 7) |]
    (* (beta, phases) per run *)
  in
  let trace_one (beta, phases) =
    let inst = Common.two_link ~beta in
    let config =
      {
        Driver.policy = Policy.uniform_linear inst;
        staleness = Driver.Stale 0.1;
        phases;
        steps_per_phase = 6;
        scheme = Integrator.Rk4;
      }
    in
    let buf = Probe.Memory.create () in
    ignore
      (Driver.run ~probe:(Probe.Memory.probe buf) inst config
         ~init:(Common.biased_start inst));
    Trace_export.events_to_string (Probe.Memory.events buf)
  in
  let seq_traces = Array.map trace_one trace_configs in
  let pooled_traces =
    Pool.with_pool ~domains:width (fun pool ->
        Pool.parallel_map ~pool trace_one trace_configs)
  in
  check
    (Printf.sprintf "trace JSONL byte-identical at -j 1 vs -j %d" width)
    (seq_traces = pooled_traces);
  (* 5. The sweep fan-out gate: per-task work below the threshold
     strips the pool, at-or-above keeps it, and None passes through. *)
  check "fan-out gate strips small work, keeps large"
    (Pool.with_pool ~domains:width (fun pool ->
         Pool.gate ~work:(Pool.min_fanout_work - 1) pool = None
         && Pool.gate ~work:Pool.min_fanout_work pool == pool
         && Pool.gate ~work:0 None = None));
  (* 6. Optionally: the full E1-E17 suite, -j 1 vs -j [jobs]. *)
  let suite_timing =
    if not full then None
    else begin
      let names = List.map fst experiments in
      let render pool =
        List.iter (fun nm -> ignore (run_experiment ~quick:false ~pool nm))
      in
      Printf.printf "  timing full suite at -j 1 ...\n%!";
      let (), seq_s = wall_time (fun () -> render None names) in
      Printf.printf "  timing full suite at -j %d ...\n%!" width;
      let (), par_s =
        wall_time (fun () ->
            Pool.with_pool ~domains:width (fun pool ->
                ignore
                  (Pool.parallel_map ~pool
                     (fun nm -> run_experiment ~quick:false ~pool:None nm)
                     (Array.of_list names))))
      in
      Some (seq_s, par_s)
    end
  in
  let pass = !failures = 0 in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
     %s\
    \  \"benchmark\": \"parallel_smoke\",\n\
    \  \"cores_available\": %d,\n\
    \  \"pool_width\": %d,\n\
    \  \"e16_quick_wall_s\": { \"sequential\": %.4f, \"pooled\": %.4f, \
     \"speedup\": %.2f },\n"
    (meta_block ())
    (Domain.recommended_domain_count ())
    width e16_seq_s e16_pooled_s
    (e16_seq_s /. e16_pooled_s);
  (match suite_timing with
  | Some (seq_s, par_s) ->
      Printf.fprintf oc
        "  \"full_suite_wall_s\": { \"j1\": %.2f, \"j%d\": %.2f, \
         \"speedup\": %.2f },\n"
        seq_s width par_s (seq_s /. par_s)
  | None -> ());
  Printf.fprintf oc
    "  \"output_byte_identical\": %b,\n  \"pass\": %b\n}\n"
    (!failures = 0) pass;
  close_out oc;
  Printf.printf "(parallel smoke written to %s)\n%!" json_path;
  if not pass then exit 1

(* --- Perf smoke: allocation contracts of the numeric hot path --- *)

(* Minor words per call of [f], measured by differencing two batch
   sizes so per-measurement setup (including the boxed float
   [Gc.minor_words] itself returns) cancels out. *)
let words_per_call f =
  let measure n =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    Gc.minor_words () -. before
  in
  let reps = 1000 in
  (measure (reps + 1) -. measure 1) /. float_of_int reps

(* The allocation contracts the Bigarray switch must preserve: the
   disabled-probe Euler step and every in-place [Vec] operation stay at
   0 minor words, a kernel update allocates at most a small constant
   and, between boards that reorder the paths, nothing at all.  Only meaningful under the native compiler — bytecode boxes
   everything, so the checks auto-pass there.  Writes BENCH_perf.json;
   exits non-zero on any violation. *)
let perf_smoke ~json_path () =
  let open Staleroute_wardrop in
  let open Staleroute_dynamics in
  let failures = ref 0 in
  let native =
    match Sys.backend_type with Sys.Native -> true | _ -> false
  in
  let check name ok =
    Printf.printf "  %-48s %s\n%!" name
      (if ok || not native then "ok" else "FAIL");
    if (not ok) && native then incr failures
  in
  let inst = multicommodity_parallel 20 in
  let policy = Policy.uniform_linear inst in
  let flow = Flow.uniform inst in
  let board = Bulletin_board.post inst ~time:0. flow in
  let kernel = Rate_kernel.build inst policy ~board in
  let euler_words = euler_words_per_step inst kernel in
  check "probes off: euler step minor words = 0" (euler_words = 0.);
  let n = Instance.path_count inst in
  let x = Staleroute_util.Vec.create n 1.5 in
  let y = Staleroute_util.Vec.create n 0.5 in
  let vec_ops =
    [
      ("fill", fun () -> Staleroute_util.Vec.fill y 0.5);
      ("blit", fun () -> Staleroute_util.Vec.blit ~src:x ~dst:y);
      ("add_", fun () -> Staleroute_util.Vec.add_ ~x ~y);
      ("scale_", fun () -> Staleroute_util.Vec.scale_ 1.0000001 y);
      ("axpy", fun () -> Staleroute_util.Vec.axpy ~alpha:1e-9 ~x ~y);
    ]
  in
  let vec_words =
    List.map (fun (name, f) -> (name, words_per_call f)) vec_ops
  in
  List.iter
    (fun (name, w) ->
      check (Printf.sprintf "vec %s minor words = 0" name) (w = 0.))
    vec_words;
  (* Update between two genuinely different boards, so the refresh
     actually runs.  The bound is a small constant: a per-entry
     allocation on this instance would cost hundreds of words. *)
  let flow2 = perturb_shares inst flow in
  let board2 = Bulletin_board.post inst ~time:1e-3 flow2 in
  let uk = Rate_kernel.build inst policy ~board in
  let flip = ref false in
  let update_words =
    words_per_call (fun () ->
        flip := not !flip;
        ignore
          (Rate_kernel.update uk ~board:(if !flip then board2 else board)))
  in
  check "kernel update minor words <= 64 (no per-entry alloc)"
    (update_words <= 64.);
  (* The factored kernel re-sorts each commodity's paths by posted
     latency on every update.  Between two boards whose latency orders
     differ the insertion sort really moves entries, and it works in
     place: 0 words, like the evaluation. *)
  let rboard =
    Bulletin_board.post inst ~time:2e-3
      (Flow.random inst (Staleroute_util.Rng.create ~seed:3 ()))
  in
  let reorder_inversions =
    let la = board.Bulletin_board.path_latencies
    and lb = rboard.Bulletin_board.path_latencies in
    let count = ref 0 in
    for ci = 0 to Instance.commodity_count inst - 1 do
      let ps = Instance.paths_of_commodity inst ci in
      Array.iter
        (fun p ->
          Array.iter
            (fun q -> if la.(p) < la.(q) && lb.(p) > lb.(q) then incr count)
            ps)
        ps
    done;
    !count
  in
  let rk = Rate_kernel.build inst policy ~board in
  let oflip = ref false in
  let reorder_words =
    words_per_call (fun () ->
        oflip := not !oflip;
        ignore
          (Rate_kernel.update rk ~board:(if !oflip then rboard else board)))
  in
  check
    (Printf.sprintf "kernel update, %d inversions: minor words = 0"
       reorder_inversions)
    (reorder_inversions > 0 && reorder_words = 0.);
  (* Steady-state repost cost: with a persistent delta scratch, a
     repost allocates only the new board's own arrays (flow copy, edge
     and path latencies, the record) — bounded by the instance, never
     by scan work.  A per-dirty-entry allocation would blow well past
     the bound. *)
  let delta = Bulletin_board.delta () in
  let flow3 =
    let g = Staleroute_util.Vec.copy flow in
    Staleroute_util.Vec.set g 0 (Staleroute_util.Vec.get g 0 -. 0.004);
    Staleroute_util.Vec.set g 1 (Staleroute_util.Vec.get g 1 +. 0.004);
    g
  in
  let prev = ref board in
  let rflip = ref false in
  let repost_words =
    words_per_call (fun () ->
        rflip := not !rflip;
        prev :=
          Bulletin_board.repost ~delta inst ~prev:!prev ~time:0.
            (if !rflip then flow3 else flow))
  in
  check "repost minor words <= 256 (board arrays only)"
    (repost_words <= 256.);
  (* Per-post work scales with the delta, not the network: on 200
     parallel links a two-path transfer re-gathers exactly the two
     touched edges. *)
  let big = multicommodity_parallel 200 in
  let bflow = Flow.uniform big in
  let bprev = Bulletin_board.post big ~time:0. bflow in
  let bflow2 =
    let g = Staleroute_util.Vec.copy bflow in
    Staleroute_util.Vec.set g 0 (Staleroute_util.Vec.get g 0 -. 0.002);
    Staleroute_util.Vec.set g 1 (Staleroute_util.Vec.get g 1 +. 0.002);
    g
  in
  ignore (Bulletin_board.repost ~delta big ~prev:bprev ~time:1. bflow2);
  let big_dirty = Bulletin_board.dirty_edges delta in
  check "two-path transfer dirties 2 of 200 edges" (big_dirty = 2);
  let pass = !failures = 0 in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
     %s\
    \  \"benchmark\": \"perf_smoke\",\n\
    \  \"cores_available\": %d,\n\
    \  \"native\": %b,\n\
    \  \"euler_minor_words_per_step\": %.2f,\n\
    \  \"vec_minor_words_per_call\": { %s },\n\
    \  \"kernel_update_minor_words_per_call\": %.2f,\n\
    \  \"kernel_update_reorder_minor_words_per_call\": %.2f,\n\
    \  \"kernel_update_reorder_inversions\": %d,\n\
    \  \"repost_minor_words_per_call\": %.2f,\n\
    \  \"repost_dirty_edges_two_path_transfer\": %d,\n\
    \  \"pass\": %b\n\
     }\n"
    (meta_block ())
    (Domain.recommended_domain_count ())
    native euler_words
    (String.concat ", "
       (List.map
          (fun (name, w) -> Printf.sprintf "\"%s\": %.2f" name w)
          vec_words))
    update_words reorder_words reorder_inversions repost_words big_dirty pass;
  close_out oc;
  Printf.printf "(perf smoke written to %s)\n%!" json_path;
  if not pass then exit 1

(* --- Obs smoke: spans, trace read-back and the regression gate --- *)

(* Ground truth for the observability layer: same-seed versioned traces
   diff as identical while different seeds diverge at a pinpointed
   event; Trace_reader round-trips write_trace output (and still accepts
   legacy headerless traces); the disabled span recorder keeps the
   0-allocation contract; an enabled recorder actually sees the driver's
   kernel builds; and the bench comparator passes a file against itself,
   hard-fails a tampered contract field and stays advisory on timing
   drift.  Writes BENCH_obs.json; exits non-zero on any failure. *)
let obs_smoke ~json_path () =
  let open Staleroute_wardrop in
  let open Staleroute_dynamics in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "  %-48s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let inst = Common.two_link ~beta:4. in
  let policy = Policy.uniform_linear inst in
  let config =
    {
      Driver.policy;
      staleness = Driver.Stale 0.1;
      phases = 4;
      steps_per_phase = 6;
      scheme = Integrator.Rk4;
    }
  in
  let capture ~seed ?spans () =
    let buf = Probe.Memory.create () in
    let init = Flow.random inst (Staleroute_util.Rng.create ~seed ()) in
    ignore (Driver.run ~probe:(Probe.Memory.probe buf) ?spans inst config ~init);
    Probe.Memory.events buf
  in
  let write_tmp writer events =
    let path = Filename.temp_file "obs_smoke" ".jsonl" in
    let oc = open_out_bin path in
    writer oc events;
    close_out oc;
    path
  in
  (* 1. Same-seed traces are identical; different seeds diverge at a
     named event (the header line is seed-independent, so divergence
     starts at line >= 2). *)
  let ev42 = capture ~seed:42 () in
  let ta = write_tmp Trace_export.write_trace ev42 in
  let tb = write_tmp Trace_export.write_trace (capture ~seed:42 ()) in
  let tc = write_tmp Trace_export.write_trace (capture ~seed:43 ()) in
  let diff_identical =
    match Trace_reader.diff_files ta tb with
    | Ok (Trace_reader.Identical { events }) -> events = Array.length ev42
    | _ -> false
  in
  check "same-seed traces diff as identical" diff_identical;
  let diff_diverged =
    match Trace_reader.diff_files ta tc with
    | Ok (Trace_reader.Diverged d) ->
        d.Trace_reader.line >= 2
        && d.Trace_reader.left_event <> None
        && d.Trace_reader.right_event <> None
    | _ -> false
  in
  check "seed 42 vs 43 diverges at a parsed event" diff_diverged;
  (* 2. Read-back: a versioned trace returns its schema stamp and the
     events it was written from; a legacy headerless trace still reads
     (meta = None).  Equality via the canonical serialisation. *)
  let reserialize evs = Trace_export.events_to_string (Array.of_list evs) in
  let versioned_rt =
    match Trace_reader.read_file ta with
    | Ok (Some { Trace_reader.schema }, evs) ->
        schema = Trace_export.schema_version
        && String.equal (reserialize evs) (Trace_export.events_to_string ev42)
    | _ -> false
  in
  check "versioned trace round-trips with schema stamp" versioned_rt;
  let legacy = write_tmp Trace_export.write_events ev42 in
  let legacy_rt =
    match Trace_reader.read_file legacy with
    | Ok (None, evs) ->
        String.equal (reserialize evs) (Trace_export.events_to_string ev42)
    | _ -> false
  in
  check "legacy headerless trace still reads" legacy_rt;
  List.iter Sys.remove [ ta; tb; tc; legacy ];
  (* 3. Allocation contract: enter/exit on the null recorder is a
     branch, nothing else (meaningful under the native compiler only). *)
  let native =
    match Sys.backend_type with Sys.Native -> true | _ -> false
  in
  let null_words =
    words_per_call (fun () ->
        let s = Span.enter Span.null "hot" in
        Span.exit Span.null s)
  in
  check "spans off: enter/exit minor words = 0"
    ((not native) || null_words = 0.);
  (* 4. An enabled recorder sees the driver's work: one kernel_build,
     a rebuild per later phase, and per-phase spans whose self time
     excludes their children. *)
  let spans = Span.create () in
  ignore (capture ~seed:42 ~spans ());
  let prof = Span.profile spans in
  let entry name = List.find_opt (fun e -> e.Span.name = name) prof in
  let span_counts =
    match (entry "kernel_build", entry "phase") with
    | Some kb, Some ph -> kb.Span.count >= 1 && ph.Span.count = config.phases
    | _ -> false
  in
  check "enabled spans: kernel_build and per-phase entries" span_counts;
  let self_bounded =
    List.for_all (fun e -> e.Span.self_ns <= e.Span.total_ns +. 1e-6) prof
  in
  check "enabled spans: self time <= total time" self_bounded;
  (* 5. The comparator: a file passes against itself; flipping a
     contract field hard-fails; drifting a timing key is advisory. *)
  let fake base fresh =
    let write s =
      let path = Filename.temp_file "obs_cmp" ".json" in
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      path
    in
    let b = write base and f = write fresh in
    let r = Bench_compare.compare_files ~baseline:b ~fresh:f in
    Sys.remove b;
    Sys.remove f;
    r
  in
  let base =
    "{ \"benchmark\": \"x\", \"pass\": true, \"build_ns\": 100.0, \
     \"count\": 7 }"
  in
  let cmp_self =
    match fake base base with Ok o -> Bench_compare.passed o | Error _ -> false
  in
  check "comparator: file vs itself passes" cmp_self;
  let cmp_tamper =
    match
      fake base
        "{ \"benchmark\": \"x\", \"pass\": false, \"build_ns\": 100.0, \
         \"count\": 7 }"
    with
    | Ok o -> not (Bench_compare.passed o)
    | Error _ -> false
  in
  check "comparator: tampered contract field fails" cmp_tamper;
  let cmp_advisory =
    match
      fake base
        "{ \"benchmark\": \"x\", \"pass\": true, \"build_ns\": 900.0, \
         \"count\": 7 }"
    with
    | Ok o -> Bench_compare.passed o && List.length o.Bench_compare.advisories = 1
    | Error _ -> false
  in
  check "comparator: timing drift is advisory only" cmp_advisory;
  let pass = !failures = 0 in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
     %s\
    \  \"benchmark\": \"obs_smoke\",\n\
    \  \"cores_available\": %d,\n\
    \  \"trace\": { \"events\": %d, \"same_seed_identical\": %b, \
     \"cross_seed_diverged\": %b, \"versioned_roundtrip\": %b, \
     \"legacy_roundtrip\": %b },\n\
    \  \"null_span_minor_words_per_call\": %.2f,\n\
    \  \"span_profile_seen\": %b,\n\
    \  \"comparator\": { \"self_pass\": %b, \"tamper_fails\": %b, \
     \"timing_advisory\": %b },\n\
    \  \"pass\": %b\n\
     }\n"
    (meta_block ())
    (Domain.recommended_domain_count ())
    (Array.length ev42) diff_identical diff_diverged versioned_rt legacy_rt
    null_words span_counts cmp_self cmp_tamper cmp_advisory pass;
  close_out oc;
  Printf.printf "(obs smoke written to %s)\n%!" json_path;
  if not pass then exit 1

let json_path = ref "BENCH_rates.json"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let args = List.filter (fun a -> a <> "quick") args in
  if List.mem "metrics" args then with_metrics := true;
  let args = List.filter (fun a -> a <> "metrics") args in
  if List.mem "profile" args then with_profile := true;
  let args = List.filter (fun a -> a <> "profile") args in
  (* "-j N": experiments fan out across N domains.  Output is
     byte-identical at any N; the default follows the hardware. *)
  let jobs = ref (Domain.recommended_domain_count ()) in
  let rec strip_jobs = function
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | _ ->
            Printf.eprintf "-j expects a positive integer, got %S\n" n;
            exit 2);
        strip_jobs rest
    | "-j" :: [] ->
        Printf.eprintf "-j expects a positive integer\n";
        exit 2
    | a :: rest -> a :: strip_jobs rest
    | [] -> []
  in
  let args = strip_jobs args in
  let args =
    List.filter
      (fun a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "csv" ->
            let dir = String.sub a (i + 1) (String.length a - i - 1) in
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            csv_dir := Some dir;
            false
        | Some i when String.sub a 0 i = "json" ->
            json_path := String.sub a (i + 1) (String.length a - i - 1);
            false
        | _ -> true)
      args
  in
  let all_names = List.map fst experiments in
  match args with
  | [] -> run_experiments ~quick ~jobs:!jobs all_names
  | [ "micro" ] ->
      micro ();
      bench_rates ~quota_s:(if quick then 0.05 else 0.5)
        ~json_path:!json_path ()
  | [ "bench-smoke" ] ->
      (* Tiny-quota comparison for CI: seconds, not minutes. *)
      bench_rates ~quota_s:0.05 ~json_path:!json_path ()
  | [ "trace-smoke" ] ->
      trace_smoke
        ~json_path:
          (if !json_path = "BENCH_rates.json" then "BENCH_trace.json"
           else !json_path)
        ()
  | [ "fault-smoke" ] ->
      fault_smoke
        ~json_path:
          (if !json_path = "BENCH_rates.json" then "BENCH_faults.json"
           else !json_path)
        ()
  | [ "perf-smoke" ] ->
      perf_smoke
        ~json_path:
          (if !json_path = "BENCH_rates.json" then "BENCH_perf.json"
           else !json_path)
        ()
  | [ "colgen-smoke" ] ->
      colgen_smoke
        ~json_path:
          (if !json_path = "BENCH_rates.json" then "BENCH_colgen.json"
           else !json_path)
        ()
  | [ "obs-smoke" ] ->
      obs_smoke
        ~json_path:
          (if !json_path = "BENCH_rates.json" then "BENCH_obs.json"
           else !json_path)
        ()
  | "compare" :: rest -> (
      (* Regression gate: committed BENCH_*.json baselines vs the fresh
         files the smoke aliases wrote (same comparator as bench_diff). *)
      match rest with
      | [ baseline_dir ] ->
          exit
            (Bench_compare.run ~baseline_dir
               ~fresh_dir:
                 (Filename.concat (Filename.concat "_build" "default") "bench"))
      | [ baseline_dir; fresh_dir ] ->
          exit (Bench_compare.run ~baseline_dir ~fresh_dir)
      | _ ->
          Printf.eprintf "compare expects BASELINE_DIR [FRESH_DIR]\n";
          exit 2)
  | "parallel-smoke" :: rest
    when rest = [] || rest = [ "full" ] ->
      parallel_smoke ~jobs:!jobs ~full:(rest = [ "full" ])
        ~json_path:
          (if !json_path = "BENCH_rates.json" then "BENCH_parallel.json"
           else !json_path)
        ()
  | [ "all" ] ->
      run_experiments ~quick ~jobs:!jobs all_names;
      micro ();
      bench_rates ~quota_s:(if quick then 0.05 else 0.5)
        ~json_path:!json_path ()
  | names -> run_experiments ~quick ~jobs:!jobs names
