open Helpers
module Span = Staleroute_obs.Span
module Json = Staleroute_obs.Json

(* --- The null recorder --- *)

let test_null_inert () =
  check_false "null is disabled" (Span.enabled Span.null);
  let h = Span.enter Span.null "anything" in
  Span.exit Span.null h;
  check_int "null profile is empty" 0 (List.length (Span.profile Span.null))

(* Enter/exit on the null recorder is a branch: no clock read, no
   allocation, so instrumented hot paths keep their 0-word contracts. *)
let test_null_allocation_free () =
  match Sys.backend_type with
  | Sys.Native ->
      check_close "null enter/exit: 0 minor words per call" 0.
        (words_per_call (fun () ->
             let h = Span.enter Span.null "hot" in
             Span.exit Span.null h))
  | _ -> ()

let test_null_record_passthrough () =
  check_int "record returns f's value" 41
    (Span.record Span.null "cold" (fun () -> 41))

(* --- Aggregation --- *)

let test_counts_aggregate_by_name () =
  let r = Span.create () in
  check_true "created recorder is enabled" (Span.enabled r);
  for _ = 1 to 5 do
    let h = Span.enter r "a" in
    Span.exit r h
  done;
  let h = Span.enter r "b" in
  Span.exit r h;
  let prof = Span.profile r in
  check_int "two distinct names" 2 (List.length prof);
  let entry name = List.find (fun e -> e.Span.name = name) prof in
  check_int "five a spans" 5 (entry "a").Span.count;
  check_int "one b span" 1 (entry "b").Span.count

let test_nesting_splits_self_time () =
  let r = Span.create () in
  let parent = Span.enter r "parent" in
  let child = Span.enter r "child" in
  (* Burn a little real time so the child total is strictly positive. *)
  let acc = ref 0. in
  for i = 1 to 100_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc);
  Span.exit r child;
  Span.exit r parent;
  let entry name = List.find (fun e -> e.Span.name = name) (Span.profile r) in
  let p = entry "parent" and c = entry "child" in
  check_true "child accrued time" (c.Span.total_ns > 0.);
  check_true "parent total covers child" (p.Span.total_ns >= c.Span.total_ns);
  check_close ~eps:1e-3 "parent self = total - child"
    (p.Span.total_ns -. c.Span.total_ns)
    p.Span.self_ns;
  check_close ~eps:1e-9 "leaf self = leaf total" c.Span.total_ns c.Span.self_ns

let test_open_span_excluded () =
  let r = Span.create () in
  let _open_span = Span.enter r "still-open" in
  let h = Span.enter r "closed" in
  Span.exit r h;
  let names = List.map (fun e -> e.Span.name) (Span.profile r) in
  check_true "closed span reported" (List.mem "closed" names);
  check_false "open span not reported" (List.mem "still-open" names)

let test_profile_sorted_by_total () =
  let r = Span.create () in
  List.iter
    (fun name ->
      let h = Span.enter r name in
      Span.exit r h)
    [ "x"; "y"; "z"; "y" ];
  let prof = Span.profile r in
  let totals = List.map (fun e -> e.Span.total_ns) prof in
  check_true "profile sorted by decreasing total"
    (List.sort (fun a b -> compare b a) totals = totals)

let test_quantiles_ordered () =
  let r = Span.create () in
  for _ = 1 to 20 do
    let h = Span.enter r "q" in
    Span.exit r h
  done;
  let e = List.hd (Span.profile r) in
  check_true "p50 <= p90" (e.Span.p50_ns <= e.Span.p90_ns);
  check_true "p90 <= max" (e.Span.p90_ns <= e.Span.max_ns);
  check_true "max <= total" (e.Span.max_ns <= e.Span.total_ns)

(* --- A driver run under an enabled recorder --- *)

let test_driver_spans () =
  let open Staleroute_dynamics in
  let module Common = Staleroute_experiments.Common in
  let module Probe = Staleroute_obs.Probe in
  let inst = Common.two_link ~beta:4. in
  let phases = 4 in
  let config =
    {
      Driver.policy = Policy.uniform_linear inst;
      staleness = Driver.Stale 0.1;
      phases;
      steps_per_phase = 6;
      scheme = Integrator.Rk4;
    }
  in
  let r = Span.create () and buf = Probe.Memory.create () in
  ignore
    (Driver.run ~probe:(Probe.Memory.probe buf) ~spans:r inst config
       ~init:(Staleroute_wardrop.Flow.random inst (rng ~seed:42 ())));
  (* Five events per phase: start, repost, rebuild, step batch, end. *)
  check_int "trace events" 20 (Probe.Memory.length buf);
  let prof = Span.profile r in
  let count name =
    match List.find_opt (fun e -> e.Span.name = name) prof with
    | Some e -> e.Span.count
    | None -> 0
  in
  check_true "kernel_build seen" (count "kernel_build" >= 1);
  check_int "one phase span per phase" phases (count "phase");
  List.iter
    (fun e ->
      check_true (e.Span.name ^ ": self <= total")
        (e.Span.self_ns <= e.Span.total_ns +. 1e-6))
    prof

(* --- Misuse and exception safety --- *)

let test_exit_out_of_order_rejected () =
  let r = Span.create () in
  let outer = Span.enter r "outer" in
  let _inner = Span.enter r "inner" in
  check_raises_invalid "exiting the outer span first" (fun () ->
      Span.exit r outer)

let test_record_rebalances_on_raise () =
  let r = Span.create () in
  let before = Span.enter r "frame" in
  (match Span.record r "raises" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  (* The stack is balanced again: the enclosing span still closes. *)
  Span.exit r before;
  let entry name = List.find (fun e -> e.Span.name = name) (Span.profile r) in
  check_int "raising span still counted" 1 (entry "raises").Span.count;
  check_int "enclosing span closed" 1 (entry "frame").Span.count

(* --- Rendering --- *)

let test_to_table_renders () =
  let r = Span.create () in
  let h = Span.enter r "render-me" in
  Span.exit r h;
  let s = Staleroute_util.Table.to_string (Span.to_table (Span.profile r)) in
  check_true "table mentions the span" (Str_contains.contains s "render-me");
  check_true "table mentions wall clock" (Str_contains.contains s "wall clock")

let test_to_json_keys () =
  let r = Span.create () in
  let h = Span.enter r "j" in
  Span.exit r h;
  match Span.to_json (Span.profile r) with
  | Json.Obj [ ("j", Json.Obj fields) ] ->
      check_true "count field present" (List.mem_assoc "count" fields);
      check_true "total field present" (List.mem_assoc "total_ns" fields)
  | _ -> Alcotest.fail "expected one object keyed by span name"

let suite =
  [
    case "null recorder is inert" test_null_inert;
    case "null recorder allocation-free" test_null_allocation_free;
    case "null record passes the value through" test_null_record_passthrough;
    case "counts aggregate by name" test_counts_aggregate_by_name;
    case "nesting splits self time" test_nesting_splits_self_time;
    case "open spans are excluded" test_open_span_excluded;
    case "profile sorted by total" test_profile_sorted_by_total;
    case "quantiles ordered" test_quantiles_ordered;
    case "driver run under an enabled recorder" test_driver_spans;
    case "out-of-order exit rejected" test_exit_out_of_order_rejected;
    case "record rebalances on raise" test_record_rebalances_on_raise;
    case "to_table renders" test_to_table_renders;
    case "to_json keys by name" test_to_json_keys;
  ]
