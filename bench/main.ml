(* Experiment harness: renders the E1–E19 tables.

   Usage:
     main.exe              run every experiment (full size) and print tables
     main.exe e1 .. e19    run the named experiments
   Options: "quick" uses the reduced parameter sets; "-j N" runs
   experiments across N domains (default
   Domain.recommended_domain_count; output stays byte-identical to
   -j 1, which `dune runtest` checks by diffing this CLI's stdout);
   "metrics" instruments every experiment and prints its metric
   snapshot (a single-name metrics or profile run ignores -j: the
   ambient registry is domain-local, so the instrumented experiment
   runs on one domain); "profile" records wall-clock timing spans and
   prints the per-experiment span profile; "csv=DIR" exports tables.
   Timing lives in bench/e2e, end to end and per layer. *)

open Staleroute_experiments
module Table = Staleroute_util.Table
module Pool = Staleroute_util.Pool
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics
module Span = Staleroute_obs.Span

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
        if String.starts_with ~prefix:"csv=" a then begin
          let dir = String.sub a 4 (String.length a - 4) in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          csv_dir := Some dir;
          false
        end
        else true)
      args
  in
  run_experiments ~quick ~jobs:!jobs
    (if args = [] then List.map fst experiments else args)
