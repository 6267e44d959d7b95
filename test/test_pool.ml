(* The fixed-width domain pool: sequential equivalence, ordering,
   failure propagation, nesting rejection, and end-to-end determinism
   of pooled simulation runs. *)

open Helpers
module Pool = Staleroute_util.Pool
module Rng = Staleroute_util.Rng

(* Run [f] against a live pool, shutting it down whatever happens. *)
let with_width n f =
  let pool = Pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_map_matches_sequential () =
  with_width 3 (fun pool ->
      let xs = Array.init 100 Fun.id in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        "parallel_map = Array.map" (Array.map f xs)
        (Pool.parallel_map ~pool:(Some pool) f xs))

let prop_map_matches_sequential =
  qcheck ~count:50 "parallel_map f = Array.map f (any width)"
    QCheck2.Gen.(
      pair (int_range 1 4) (array_size (int_range 0 40) (int_bound 1000)))
    (fun (width, xs) ->
      let f x = (3 * x) - 7 in
      let pooled =
        Pool.with_pool ~domains:width (fun pool ->
            Pool.parallel_map ~pool f xs)
      in
      pooled = Array.map f xs)

let test_map_no_pool () =
  let xs = [| 5; 6; 7 |] in
  Alcotest.(check (array int))
    "pool:None is the plain sequential map"
    [| 10; 12; 14 |]
    (Pool.parallel_map ~pool:None (fun x -> 2 * x) xs)

let test_empty () =
  with_width 2 (fun pool ->
      Alcotest.(check (array int))
        "empty input" [||]
        (Pool.parallel_map ~pool:(Some pool) (fun x -> x) [||]))

let test_iter_covers_once () =
  with_width 4 (fun pool ->
      let n = 64 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_iter ~pool:(Some pool)
        (fun i -> Atomic.incr hits.(i))
        (Array.init n Fun.id);
      Array.iteri
        (fun i c -> check_int (Printf.sprintf "index %d hit once" i) 1
            (Atomic.get c))
        hits)

let test_reuse () =
  with_width 2 (fun pool ->
      for round = 1 to 50 do
        let xs = Array.init (1 + (round mod 7)) (fun i -> i + round) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.map succ xs)
          (Pool.parallel_map ~pool:(Some pool) succ xs)
      done)

let test_lowest_failure_wins () =
  with_width 2 (fun pool ->
      (match
         Pool.parallel_map ~pool:(Some pool)
           (fun i -> if i = 1 || i = 3 then failwith (Printf.sprintf "boom%d" i)
             else i)
           (Array.init 6 Fun.id)
       with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          Alcotest.(check string) "lowest-index failure" "boom1" msg);
      (* The pool survives a failed batch. *)
      Alcotest.(check (array int))
        "usable after failure" [| 0; 1; 2 |]
        (Pool.parallel_map ~pool:(Some pool) Fun.id [| 0; 1; 2 |]))

let test_nested_rejected () =
  with_width 2 (fun pool ->
      check_raises_invalid "nested submission" (fun () ->
          Pool.parallel_map ~pool:(Some pool)
            (fun _ ->
              Pool.parallel_map ~pool:(Some pool) Fun.id [| 1; 2 |])
            [| 0 |]))

let test_with_pool_width () =
  check_true "domains:1 runs without a pool"
    (Pool.with_pool ~domains:1 (fun pool -> pool = None));
  Pool.with_pool ~domains:3 (fun pool ->
      match pool with
      | None -> Alcotest.fail "expected a pool at domains:3"
      | Some p -> check_int "width" 3 (Pool.width p))

let test_shutdown () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  check_raises_invalid "submission after shutdown" (fun () ->
      Pool.parallel_map ~pool:(Some pool) Fun.id [| 1 |])

let test_split_seeds () =
  let seeds1 = Rng.split_seeds (rng ()) 8 in
  let seeds2 = Rng.split_seeds (rng ()) 8 in
  Alcotest.(check (array int)) "split is deterministic" seeds1 seeds2;
  check_int "length" 8 (Array.length seeds1);
  check_raises_invalid "negative count" (fun () ->
      ignore (Rng.split_seeds (rng ()) (-1)))

(* End-to-end determinism: traced driver runs fanned across the pool
   must produce the same JSONL bytes as the sequential loop — the
   ISSUE's "identical --trace output at -j 1 vs -j 4" check. *)
let test_trace_bytes_identical () =
  let open Staleroute_dynamics in
  let module Probe = Staleroute_obs.Probe in
  let module Common = Staleroute_experiments.Common in
  let trace_one (beta, phases) =
    let inst = Common.two_link ~beta in
    let config =
      {
        Driver.policy = Policy.uniform_linear inst;
        staleness = Driver.Stale 0.1;
        phases;
        steps_per_phase = 5;
        scheme = Integrator.Rk4;
      }
    in
    let buf = Probe.Memory.create () in
    ignore
      (Driver.run ~probe:(Probe.Memory.probe buf) inst config
         ~init:(Common.biased_start inst));
    Staleroute_obs.Trace_export.events_to_string (Probe.Memory.events buf)
  in
  let configs = [| (4., 5); (2., 7); (8., 4); (3., 6) |] in
  let sequential = Array.map trace_one configs in
  let pooled =
    Pool.with_pool ~domains:4 (fun pool ->
        Pool.parallel_map ~pool trace_one configs)
  in
  Array.iteri
    (fun i s ->
      check_true
        (Printf.sprintf "run %d trace bytes identical at -j 4" i)
        (String.equal s pooled.(i)))
    sequential

(* The board's post counter is atomic: boards posted concurrently from
   pooled domains must still get pairwise-distinct revisions, or
   Rate_kernel.is_current could be fooled by a torn increment. *)
let test_pooled_revisions_distinct () =
  let open Staleroute_dynamics in
  let module Common = Staleroute_experiments.Common in
  let inst = Common.braess () in
  let f = Staleroute_wardrop.Flow.uniform inst in
  let revisions =
    Pool.with_pool ~domains:4 (fun pool ->
        Pool.parallel_map ~pool
          (fun t ->
            Array.init 25 (fun _ ->
                Bulletin_board.revision
                  (Bulletin_board.post inst ~time:(float_of_int t) f)))
          (Array.init 4 Fun.id))
  in
  let all = Array.concat (Array.to_list revisions) in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  let distinct = ref true in
  Array.iteri
    (fun i r -> if i > 0 && sorted.(i - 1) = r then distinct := false)
    sorted;
  check_int "every post got a revision" 100 (Array.length all);
  check_true "revisions posted from 4 domains all distinct" !distinct

(* Faulted runs keep the byte-identity contract: the fault plan is a
   pure function of (seed, index), so pooled fan-out cannot reorder or
   re-draw faults. *)
let test_faulted_trace_bytes_identical () =
  let open Staleroute_dynamics in
  let module Probe = Staleroute_obs.Probe in
  let module Common = Staleroute_experiments.Common in
  let trace_one seed =
    let inst = Common.two_link ~beta:4. in
    let config =
      {
        Driver.policy = Policy.uniform_linear inst;
        staleness = Driver.Stale 0.1;
        phases = 8;
        steps_per_phase = 5;
        scheme = Integrator.Rk4;
      }
    in
    let faults =
      Faults.plan (Faults.make ~drop:0.3 ~partial:0.2 ~noise:0.2 ~seed ())
    in
    let buf = Probe.Memory.create () in
    ignore
      (Driver.run ~probe:(Probe.Memory.probe buf) ~faults inst config
         ~init:(Common.biased_start inst));
    Staleroute_obs.Trace_export.events_to_string (Probe.Memory.events buf)
  in
  let seeds = Rng.split_seeds (rng ()) 4 in
  let sequential = Array.map trace_one seeds in
  let pooled =
    Pool.with_pool ~domains:4 (fun pool ->
        Pool.parallel_map ~pool trace_one seeds)
  in
  Array.iteri
    (fun i s ->
      check_true
        (Printf.sprintf "faulted run %d trace bytes identical at -j 4" i)
        (String.equal s pooled.(i)))
    sequential

(* The sweep fan-out gate: per-task work below the threshold strips
   the pool, at or above it keeps the pool, and [None] passes through. *)
let test_gate () =
  with_width 2 (fun pool ->
      let pool = Some pool in
      check_true "small work runs sequentially"
        (Pool.gate ~work:(Pool.min_fanout_work - 1) pool = None);
      check_true "large work keeps the pool"
        (Pool.gate ~work:Pool.min_fanout_work pool == pool);
      check_true "no pool stays no pool" (Pool.gate ~work:0 None = None))

let suite =
  [
    case "parallel_map matches Array.map" test_map_matches_sequential;
    prop_map_matches_sequential;
    case "pool:None falls back to sequential" test_map_no_pool;
    case "empty input" test_empty;
    case "parallel_iter visits each index once" test_iter_covers_once;
    case "pool is reusable across batches" test_reuse;
    case "lowest-index failure propagates" test_lowest_failure_wins;
    case "nested submission is rejected" test_nested_rejected;
    case "with_pool width handling" test_with_pool_width;
    case "shutdown is idempotent and final" test_shutdown;
    case "fan-out gate" test_gate;
    case "Rng.split_seeds" test_split_seeds;
    case "pooled traces byte-identical to sequential"
      test_trace_bytes_identical;
    case "pooled board revisions distinct" test_pooled_revisions_distinct;
    case "pooled faulted traces byte-identical"
      test_faulted_trace_bytes_identical;
  ]
