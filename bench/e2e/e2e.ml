(* e2e: the end-to-end job benchmark.  README.md describes the
   workloads, the metrics and how to read them.

     e2e.exe --workload W --seed N --seconds S --trace 0|1 [--out FILE]
         One workload, closed loop, for S seconds.  Prints one
         "workload metric value unit" line per metric and, last, a JSON
         object with correct/attempted/failed/metrics.  --trace 0 gives
         the end-to-end metrics, --trace 1 the per-layer ones.
     e2e.exe [--seed N] [--seconds S] [--out FILE]
         Every workload: 5 untraced runs and 1 traced run, each in its
         own child process; writes the combined results to FILE.
     e2e.exe compare A.json B.json
         Compares two combined result files against the bounds in
         BENCHMARK.json.
     e2e.exe quick
         Every workload at about 1/50 size, once untraced and once
         traced, with every check. *)

open Staleroute_wardrop
open Staleroute_dynamics
module Json = Staleroute_obs.Json
module Span = Staleroute_obs.Span
module Metrics = Staleroute_obs.Metrics
module Stats = Staleroute_util.Stats
module Clock = Staleroute_util.Clock
module Vec = Staleroute_util.Vec
module Digraph = Staleroute_graph.Digraph
module W = Workloads

let now () = Clock.now_ns () *. 1e-9

(* Keep equal to "run_seconds" in BENCHMARK.json. *)
let default_seconds = 20

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : float array;
}

let median_metric name unit samples =
  { name; unit; value = Stats.median samples; samples }

(* {1 Jobs} *)

(* One workload's generated inputs, and what every job run from them is
   checked against. *)
type runner = {
  workload : W.t;
  setup : unit -> W.state;
  mutable reference : Flow.t option;  (** the first job's final flow *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
}

let runner (workload : W.t) size ~seed =
  {
    workload;
    setup = workload.generate size ~seed;
    reference = None;
    attempted = 0;
    failed = 0;
    failures = [];
  }

type outcome = {
  sim_s : float;  (** [Driver.run] *)
  run_s : float;  (** [Driver.run] plus the judge *)
  steps : int;  (** integrator steps *)
  layers : (string * string * float) list;  (** traced jobs only *)
  profile : Span.profile;
}

let per_layer (state : W.state) (r : Driver.result) (v : W.verdict) ~profile
    ~metrics ~gc0 ~gc1 ~steps =
  let entry name =
    List.find_opt (fun (e : Span.entry) -> String.equal e.name name) profile
  in
  let get f name = match entry name with Some e -> f e | None -> 0. in
  let total = get (fun e -> e.total_ns) in
  let count = get (fun e -> float_of_int e.count) in
  let sum f names = List.fold_left (fun acc n -> acc +. f n) 0. names in
  let counter name =
    float_of_int (Metrics.count (Metrics.counter metrics name))
  in
  let ratio a b = if b = 0. then 0. else a /. b in
  let phase = Option.get (entry "phase") in
  let inst = state.inst in
  let edges = float_of_int (Digraph.edge_count (Instance.graph inst)) in
  let posts = counter "board_reposts" in
  let dirty_edges = counter "repost_dirty_edges" in
  let kernel = [ "kernel_build"; "kernel_update"; "kernel_grow" ] in
  let kernel_ns = sum total kernel in
  let entries = float_of_int (Rate_kernel.entry_count r.final_instance) in
  let evals = counter "derivative_evals" in
  let pricings = count "colgen_price" in
  let per_step a b = (a -. b) /. float_of_int steps in
  let fw_iterations, fw_gap =
    match v.reference with
    | Some fw -> (float_of_int fw.iterations, fw.gap)
    | None -> (0., 0.)
  in
  [
    ("driver.phase_p50_ms", "ms", phase.p50_ns /. 1e6);
    ("driver.phase_p90_ms", "ms", phase.p90_ns /. 1e6);
    ("driver.phase_max_ms", "ms", phase.max_ns /. 1e6);
    (* Per-boundary work: the phase's self time plus the boundary spans
       that only some workloads have. *)
    ( "driver.boundary_s",
      "s",
      (phase.self_ns
      +. sum total [ "project"; "guard_check"; "colgen_price"; "checkpoint_save" ])
      /. 1e9 );
    ( "bulletin_board.busy_s",
      "s",
      sum total [ "board_post"; "board_repost" ] /. 1e9 );
    ("bulletin_board.posts", "count", posts);
    ("bulletin_board.dirty_edges", "count", dirty_edges);
    ("bulletin_board.dirty_paths", "count", counter "repost_dirty_paths");
    ( "bulletin_board.dirty_edge_ratio",
      "ratio",
      ratio dirty_edges (posts *. edges) );
    ("rate_kernel.busy_s", "s", kernel_ns /. 1e9);
    ("rate_kernel.builds", "count", count "kernel_build");
    ("rate_kernel.updates", "count", count "kernel_update");
    ("rate_kernel.grows", "count", count "kernel_grow");
    ("rate_kernel.entries", "count", entries);
    ( "rate_kernel.ns_per_entry",
      "ns",
      ratio kernel_ns (sum count kernel *. entries) );
    ("integrator.busy_s", "s", total "integrate" /. 1e9);
    ("integrator.derivative_evals", "count", evals);
    ("integrator.ns_per_eval", "ns", ratio (total "integrate") evals);
    ("path_pool.pricings", "count", pricings);
    ("path_pool.columns", "count", counter "paths_grown");
    ("path_pool.admit_ratio", "ratio", ratio (count "kernel_grow") pricings);
    ("guard.repairs", "count", counter "guard_repairs");
    ("faults.injected", "count", counter "faults_injected");
    ("frank_wolfe.iterations", "count", fw_iterations);
    ("frank_wolfe.gap", "latency", fw_gap);
    ("judge.busy_s", "s", total "judge" /. 1e9);
    ("judge.phi_final", "phi", r.final_potential);
    ("judge.unsat_volume", "volume", v.unsat_volume);
    ("instance.build_s", "s", total "setup" /. 1e9);
    ("instance.paths", "count", float_of_int (Instance.path_count inst));
    ("instance.edges", "count", edges);
    ( "instance.incidences",
      "count",
      float_of_int (Array.length (Instance.csr_edges inst)) );
    ( "gc.minor_words_per_step",
      "words",
      per_step gc1.Gc.minor_words gc0.Gc.minor_words );
    ( "gc.promoted_words_per_step",
      "words",
      per_step gc1.Gc.promoted_words gc0.Gc.promoted_words );
    ( "gc.major_collections",
      "count",
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
    (* The share of [Driver.run] that its child spans account for. *)
    ( "trace.coverage",
      "ratio",
      1. -. ratio (get (fun e -> e.self_ns) "driver_run") (total "driver_run")
    );
  ]

(* Set up, simulate and judge once, then check the outputs.  A traced
   job passes a live span recorder and metrics registry through the
   existing [?spans]/[?metrics] arguments and wraps the harness's own
   calls in spans. *)
let job s ~traced =
  let spans = if traced then Span.create () else Span.null in
  let metrics = if traced then Metrics.create () else Metrics.null in
  let w = s.workload in
  let state = Span.record spans "setup" s.setup in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let r =
    Span.record spans "driver_run" (fun () ->
        Driver.run ~spans ~metrics ~faults:state.faults ?guard:state.guard
          ?colgen:state.colgen state.inst state.config ~init:state.init)
  in
  let t1 = now () in
  let gc1 = Gc.quick_stat () in
  let v = Span.record spans "judge" (fun () -> w.judge spans state r) in
  let t2 = now () in
  let identity =
    match s.reference with
    | None ->
        s.reference <- Some r.final_flow;
        None
    | Some f ->
        Checks.identical
          ~what:(if traced then "traced run vs first run" else "rerun vs first run")
          f r.final_flow
  in
  let failures =
    Option.to_list identity
    @ Checks.result ~lemma4:w.lemma4 r
    @ Option.to_list
        (Option.bind v.reference
           (Checks.above_reference ~phi_final:r.final_potential))
  in
  s.attempted <- s.attempted + 1;
  if failures <> [] then s.failed <- s.failed + 1;
  List.iter
    (fun f ->
      s.failures <-
        Printf.sprintf "%s job %d: %s" w.name s.attempted f :: s.failures)
    failures;
  let steps = state.config.phases * state.config.steps_per_phase in
  let profile = Span.profile spans in
  {
    sim_s = t1 -. t0;
    run_s = t2 -. t0;
    steps;
    layers =
      (if traced then per_layer state r v ~profile ~metrics ~gc0 ~gc1 ~steps
       else []);
    profile;
  }

(* Runs [f] until [deadline], at least once. *)
let until deadline f =
  let rec loop acc =
    let acc = f () :: acc in
    if now () >= deadline then Array.of_list (List.rev acc) else loop acc
  in
  loop []

(* One set-up sample: the mean over a batch that repeats the set-up for
   at least 0.1 s, far above the clock's resolution. *)
let setup_batch s =
  let t0 = now () in
  let n = ref 0 in
  while now () -. t0 < 0.1 do
    ignore (s.setup () : W.state);
    incr n
  done;
  (now () -. t0) /. float_of_int !n

let setup_batches = 9

(* The fastest of a run's job times.  On a shared machine interference
   only ever adds time, and it comes in stretches of seconds (the same
   job has run up to 1.9x slower), so a run's median depends on how
   much of it such a stretch covered, while its minimum barely moves. *)
let fastest ~higher name unit xs =
  let best = if higher then Float.max else Float.min in
  { name; unit; value = Array.fold_left best xs.(0) xs; samples = xs }

let end_to_end s ~deadline =
  (* The set-up batches are spread over the run, one at the first job
     boundary after each ninth of it, so that no single slow stretch
     covers them all. *)
  let start = now () in
  let setup = ref [] in
  let jobs =
    until deadline (fun () ->
        let taken = List.length !setup in
        if
          taken < setup_batches
          && now ()
             >= start
                +. (float_of_int taken *. (deadline -. start)
                   /. float_of_int setup_batches)
        then setup := setup_batch s :: !setup;
        job s ~traced:false)
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  ( [
      fastest ~higher:false "run_s" "s" (Array.map (fun o -> o.run_s) jobs);
      median_metric "setup_s" "s" (Array.of_list (List.rev !setup));
      fastest ~higher:true "steps_per_s" "1/s"
        (Array.map (fun o -> float_of_int o.steps /. o.sim_s) jobs);
      median_metric "heap_peak_mb" "MB" [| heap_mb |];
    ],
    [] )

(* Alternates untraced and traced jobs: the traced ones give the
   per-layer numbers (medians over the traced jobs), the pairs give the
   tracing overhead. *)
let layered s ~deadline =
  let pairs =
    until deadline (fun () ->
        let untraced = job s ~traced:false in
        (untraced, job s ~traced:true))
  in
  let traced = Array.map snd pairs in
  let layers =
    List.mapi
      (fun i (name, unit, _) ->
        median_metric name unit
          (Array.map
             (fun o ->
               let _, _, v = List.nth o.layers i in
               v)
             traced))
      traced.(0).layers
  in
  let sim f =
    Array.fold_left (fun acc p -> Float.min acc (f p).sim_s) infinity pairs
  in
  let overhead = (sim snd /. sim fst) -. 1. in
  ( layers @ [ median_metric "trace.overhead_frac" "ratio" [| overhead |] ],
    traced.(Array.length traced - 1).profile )

(* {1 Output} *)

let flow_digest f =
  let b = Buffer.create (8 * Vec.dim f) in
  for i = 0 to Vec.dim f - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float (Vec.get f i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let floats xs = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) xs))

let metric_json ~samples m =
  ( m.name,
    Json.Obj
      ([ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]
      @ if samples then [ ("samples", floats m.samples) ] else []) )

let write_file path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let read_json path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let measure (w : W.t) ~seed ~seconds ~trace ~out =
  let deadline = now () +. float_of_int seconds in
  let s = runner w W.Full ~seed in
  let metrics, profile =
    if trace then layered s ~deadline else end_to_end s ~deadline
  in
  List.iter
    (fun m ->
      Printf.printf "%s %s %s %s\n" w.name m.name (Json.float_repr m.value)
        m.unit)
    metrics;
  List.iter (Printf.eprintf "e2e: check failed: %s\n") (List.rev s.failures);
  let summary =
    [
      ("correct", Json.Bool (s.failed = 0));
      ("attempted", Json.Int s.attempted);
      ("failed", Json.Int s.failed);
    ]
  in
  Option.iter
    (fun path ->
      write_file path
        (Json.Obj
           ([
              ("workload", Json.String w.name);
              ("seed", Json.Int seed);
              ("trace", Json.Bool trace);
            ]
           @ summary
           @ [
               ( "failures",
                 Json.List
                   (List.rev_map (fun f -> Json.String f) s.failures) );
               ( "flow_digest",
                 Json.String (flow_digest (Option.get s.reference)) );
               ( "metrics",
                 Json.Obj (List.map (metric_json ~samples:true) metrics) );
               ("spans", Span.to_json profile);
             ])))
    out;
  print_endline
    (Json.to_string
       (Json.Obj
          (summary
          @ [ ("metrics", Json.Obj (List.map (metric_json ~samples:false) metrics)) ]
          )));
  if s.failed = 0 then 0 else 1

(* {1 Every workload} *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let need path json =
  match
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
  with
  | Some v -> v
  | None -> failwith ("missing field " ^ String.concat "." path)

let num j =
  match Json.to_float j with Some x -> x | None -> failwith "expected a number"

let str j =
  match Json.to_str j with Some x -> x | None -> failwith "expected a string"

let list = function Json.List l -> l | _ -> failwith "expected a list"
let quartiles xs = Stats.quantiles xs [| 0.25; 0.5; 0.75 |]

(* A metric's values over the untraced repetitions of a workload in a
   combined result file. *)
let values results (w : W.t) name =
  Array.of_list
    (List.map
       (fun run -> num (need [ "metrics"; name; "value" ] run))
       (list (need [ "workloads"; w.name; "runs" ] results)))

let end_to_end_names = [ "run_s"; "setup_s"; "steps_per_s"; "heap_peak_mb" ]
let repetitions = 5

(* Every workload, one child process at a time (one client, one job in
   flight, one domain): [repetitions] untraced runs for the end-to-end
   numbers, then one traced run for the per-layer numbers.  Every run of
   a workload must end on the same final flow, bit for bit. *)
let run_all ~seed ~seconds ~out =
  let out =
    Option.value out ~default:(Printf.sprintf "bench/e2e/out/seed%d.json" seed)
  in
  mkdir_p (Filename.dirname out);
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  let child (w : W.t) label ~trace =
    let file =
      Printf.sprintf "%s.%s.%s.json" (Filename.remove_extension out) w.name
        label
    in
    let argv =
      [|
        Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
        "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
        "--out"; file;
      |]
    in
    if Sys.file_exists file then Sys.remove file;
    let pid =
      Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
        Unix.stderr
    in
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
        problem (Printf.sprintf "%s %s exited with %d" w.name label c));
    if Sys.file_exists file then read_json file else Json.Null
  in
  let results =
    List.map
      (fun (w : W.t) ->
        let runs =
          List.init repetitions (fun i ->
              child w (Printf.sprintf "rep%d" (i + 1)) ~trace:false)
        in
        let traced = child w "traced" ~trace:true in
        let digests =
          List.sort_uniq compare
            (List.filter_map (Json.member "flow_digest") (traced :: runs))
        in
        if List.length digests > 1 then
          problem (w.name ^ ": runs ended on different final flows");
        (w.name, Json.Obj [ ("runs", Json.List runs); ("traced", traced) ]))
      W.all
  in
  let combined =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("seconds", Json.Int seconds);
        ("workloads", Json.Obj results);
      ]
  in
  write_file out combined;
  if !problems = [] then
    List.iter
      (fun (w : W.t) ->
        List.iter
          (fun name ->
            let q = quartiles (values combined w name) in
            let unit =
              need [ "workloads"; w.name; "runs" ] combined |> list |> List.hd
              |> need [ "metrics"; name; "unit" ] |> str
            in
            Printf.printf "%s %s %s %s q1=%s q3=%s n=%d\n" w.name name
              (Json.float_repr q.(1)) unit (Json.float_repr q.(0))
              (Json.float_repr q.(2)) repetitions)
          end_to_end_names)
      W.all;
  Printf.printf "e2e: results in %s\n" out;
  List.iter (Printf.eprintf "e2e: FAILED: %s\n") (List.rev !problems);
  if !problems = [] then 0 else 1

(* {1 Compare} *)

(* Verdict for one workload x metric: "unresolved" when either side's
   spread (interquartile range over median) exceeds the bound, unless
   every B value beats every A value; else "worse" when B's median is
   worse than A's by more than the bound. *)
let verdict ~lower ~bound a b =
  let qa = quartiles a and qb = quartiles b in
  let spread q = (q.(2) -. q.(0)) /. Float.abs q.(1) in
  let worse_by =
    let change = (qb.(1) -. qa.(1)) /. Float.abs qa.(1) in
    if lower then change else -.change
  in
  let beats x y = if lower then x < y else x > y in
  let all_better =
    Array.for_all (fun y -> Array.for_all (fun x -> beats y x) a) b
  in
  let v =
    if Float.max (spread qa) (spread qb) > bound && not all_better then
      "unresolved"
    else if worse_by > bound then "worse"
    else "ok"
  in
  (qa, qb, worse_by, v)

let compare_files a_path b_path =
  let spec = read_json "BENCHMARK.json" in
  let a = read_json a_path and b = read_json b_path in
  let metrics = list (need [ "end_to_end" ] spec) in
  let cell q = Printf.sprintf "%.5g [%.5g, %.5g]" q.(1) q.(0) q.(2) in
  Printf.printf "%-12s %-13s %-36s %-36s %9s %6s %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "worse by" "bound" "verdict";
  let worse = ref false in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun m ->
          let name = str (need [ "name" ] m) in
          let lower = str (need [ "better" ] m) = "lower" in
          let bound = num (need [ "bound" ] m) in
          let qa, qb, worse_by, v =
            verdict ~lower ~bound (values a w name) (values b w name)
          in
          if v = "worse" then worse := true;
          Printf.printf "%-12s %-13s %-36s %-36s %+8.2f%% %5.0f%% %s\n" w.name
            name (cell qa) (cell qb) (100. *. worse_by) (100. *. bound) v)
        metrics)
    W.all;
  if !worse then 1 else 0

(* {1 Quick} *)

let quick () =
  let ok =
    List.fold_left
      (fun ok (w : W.t) ->
        let s = runner w W.Quick ~seed:1 in
        let t0 = now () in
        let _ = job s ~traced:false in
        let traced = job s ~traced:true in
        let pass = s.failed = 0 && traced.layers <> [] in
        Printf.printf "quick %-12s %s (%.2f s)\n" w.name
          (if pass then "ok" else "FAILED")
          (now () -. t0);
        List.iter (Printf.printf "  %s\n") (List.rev s.failures);
        ok && pass)
      true W.all
  in
  if ok then 0 else 1

(* {1 Command line} *)

let usage =
  "usage: e2e.exe [--workload W --trace 0|1] [--seed N] [--seconds S] [--out \
   FILE]\n\
  \       e2e.exe compare A.json B.json\n\
  \       e2e.exe quick"

let fail msg =
  prerr_endline ("e2e: " ^ msg);
  prerr_endline usage;
  exit 2

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> fail (Printf.sprintf "%s expects an integer, got %S" flag v)

let main = function
  | [ "quick" ] -> quick ()
  | [ "compare"; a; b ] -> compare_files a b
  | args -> (
      let rec parse (w, seed, seconds, trace, out) = function
        | [] -> (w, seed, seconds, trace, out)
        | "--workload" :: v :: rest -> (
            match W.find v with
            | Some wl -> parse (Some wl, seed, seconds, trace, out) rest
            | None -> fail (Printf.sprintf "unknown workload %S" v))
        | "--seed" :: v :: rest ->
            parse (w, int_arg "--seed" v, seconds, trace, out) rest
        | "--seconds" :: v :: rest ->
            let n = int_arg "--seconds" v in
            if n < 1 then fail "--seconds expects a positive integer";
            parse (w, seed, n, trace, out) rest
        | "--trace" :: (("0" | "1") as v) :: rest ->
            parse (w, seed, seconds, Some (v = "1"), out) rest
        | "--out" :: v :: rest -> parse (w, seed, seconds, trace, Some v) rest
        | a :: _ -> fail (Printf.sprintf "unexpected argument %S" a)
      in
      match parse (None, 1, default_seconds, None, None) args with
      | Some w, seed, seconds, Some trace, out ->
          measure w ~seed ~seconds ~trace ~out
      | None, seed, seconds, None, out -> run_all ~seed ~seconds ~out
      | _ -> fail "--workload and --trace go together")

let () =
  exit
    (try main (List.tl (Array.to_list Sys.argv))
     with Failure msg | Sys_error msg ->
       prerr_endline ("e2e: " ^ msg);
       2)
