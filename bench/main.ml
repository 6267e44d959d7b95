(* Benchmark and experiment harness.

   Usage:
     main.exe              run every experiment (full size) and print tables
     main.exe e1 .. e19    run the named experiments
     main.exe micro        run the Bechamel microbenchmarks, then the
                           kernel-vs-reference table (also writes the
                           BENCH_rates.json perf trajectory)
     main.exe bench-smoke  tiny-quota kernel-vs-reference table only;
                           writes BENCH_rates.json (also `dune build
                           @bench-smoke`)
     main.exe parallel-smoke
                           pooled-vs-sequential wall time of E16-quick;
                           writes BENCH_parallel.json (also `dune build
                           @parallel-smoke`); add "full" to also time the
                           full E1-E19 suite at -j 1 vs -j N
     main.exe all          experiments + microbenchmarks
   Options: "quick" uses the reduced parameter sets; "-j N" runs
   experiments across N domains (default
   Domain.recommended_domain_count; output stays byte-identical to
   -j 1, which `dune runtest` checks by diffing this CLI's stdout);
   "metrics" instruments every experiment and prints its metric
   snapshot (a single-name metrics or profile run ignores -j: the
   ambient registry is domain-local, so the instrumented experiment
   runs on one domain); "profile" records wall-clock timing spans and
   prints the per-experiment span profile; "csv=DIR" exports tables;
   "json=FILE" redirects the BENCH_*.json record. *)

open Staleroute_experiments
module Table = Staleroute_util.Table
module Pool = Staleroute_util.Pool
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics
module Span = Staleroute_obs.Span

(* Provenance block stamped into every BENCH_*.json.  utc_written and
   git_commit are wall-clock/host facts, not measurements. *)
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
   (a diff rule in bench/dune pins this down). *)
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
  let pool = Staleroute_util.Vec.Pool.create ~dim:(Instance.path_count inst) in
  let tests =
    [
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

(* --- Parallel smoke: pooled-vs-sequential timings --- *)

let wall_time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* Wall time of E16-quick sequentially and pooled at -j [max 2 jobs];
   with [full], also the full E1-E19 suite.  Writes BENCH_parallel.json,
   an advisory record: that pooled output is byte-identical to -j 1 is
   checked by the diff rules in bench/dune, not here. *)
let parallel_smoke ~jobs ~full ~json_path () =
  let width = max 2 jobs in
  let render_e16 pool =
    let out = Buffer.create 4096 in
    buffer_tables out (E16_phase_diagram.tables ?pool ~quick:true ());
    buffer_figures out (E16_phase_diagram.figures ?pool ~quick:true ())
  in
  let (), e16_seq_s = wall_time (fun () -> render_e16 None) in
  let (), e16_pooled_s =
    wall_time (fun () ->
        Pool.with_pool ~domains:width (fun pool -> render_e16 pool))
  in
  Printf.printf "  e16-quick wall time: %.4f s at -j 1, %.4f s at -j %d\n%!"
    e16_seq_s e16_pooled_s width;
  let suite_timing =
    if not full then None
    else begin
      let names = List.map fst experiments in
      Printf.printf "  timing full suite at -j 1 ...\n%!";
      let (), seq_s =
        wall_time (fun () ->
            List.iter
              (fun nm -> ignore (run_experiment ~quick:false ~pool:None nm))
              names)
      in
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
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
     %s\
    \  \"benchmark\": \"parallel_smoke\",\n\
    \  \"cores_available\": %d,\n\
    \  \"pool_width\": %d,\n\
    \  \"e16_quick_wall_s\": { \"sequential\": %.4f, \"pooled\": %.4f, \
     \"speedup\": %.2f }"
    (meta_block ())
    (Domain.recommended_domain_count ())
    width e16_seq_s e16_pooled_s
    (e16_seq_s /. e16_pooled_s);
  (match suite_timing with
  | Some (seq_s, par_s) ->
      Printf.fprintf oc
        ",\n  \"full_suite_wall_s\": { \"j1\": %.2f, \"j%d\": %.2f, \
         \"speedup\": %.2f }"
        seq_s width par_s (seq_s /. par_s)
  | None -> ());
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "(parallel timings written to %s)\n%!" json_path

(* "json=FILE" overrides the mode's own BENCH_*.json. *)
let json_path = ref None

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
            json_path := Some (String.sub a (i + 1) (String.length a - i - 1));
            false
        | _ -> true)
      args
  in
  let rates_json = Option.value !json_path ~default:"BENCH_rates.json" in
  let all_names = List.map fst experiments in
  match args with
  | [] -> run_experiments ~quick ~jobs:!jobs all_names
  | [ "micro" ] ->
      micro ();
      bench_rates ~quota_s:(if quick then 0.05 else 0.5) ~json_path:rates_json
        ()
  | [ "bench-smoke" ] ->
      (* Tiny-quota comparison for CI: seconds, not minutes. *)
      bench_rates ~quota_s:0.05 ~json_path:rates_json ()
  | "parallel-smoke" :: rest when rest = [] || rest = [ "full" ] ->
      parallel_smoke ~jobs:!jobs ~full:(rest = [ "full" ])
        ~json_path:(Option.value !json_path ~default:"BENCH_parallel.json")
        ()
  | [ "all" ] ->
      run_experiments ~quick ~jobs:!jobs all_names;
      micro ();
      bench_rates ~quota_s:(if quick then 0.05 else 0.5) ~json_path:rates_json
        ()
  | names -> run_experiments ~quick ~jobs:!jobs names
