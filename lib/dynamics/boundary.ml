open Staleroute_wardrop
module Vec = Staleroute_util.Vec
module Probe = Staleroute_obs.Probe
module Metrics = Staleroute_obs.Metrics
module Span = Staleroute_obs.Span

type board_state = {
  posted_at : float;
  board_flow : Flow.t;
  board_latencies : float array;
}

type resume = {
  next_index : int;
  start_flow : Flow.t;
  posted : board_state option;
  grown_paths : (int * int array) list;
}

(* The live posting: a board and the kernel compiled against it.  With
   fault injection a posting can outlive its update period (a dropped
   re-post keeps the old board — and its kernel stays legitimately
   current, because the board did not change). *)
type live = { board : Bulletin_board.t; kernel : Rate_kernel.t }

(* Instrument handles are resolved once per run, so the per-post cost
   of disabled metrics is a liveness branch. *)
type t = {
  probe : Probe.t;
  spans : Span.recorder;
  reposts : Metrics.counter;
  (* Dirty-work of delta reposts: how many edge latencies were
     re-evaluated / path latencies recomputed.  Metrics only, never
     events — trace byte-identity surfaces are untouched. *)
  repost_edges : Metrics.counter;
  repost_paths : Metrics.counter;
  rebuilds : Metrics.counter;
  faults_c : Metrics.counter;
  grown_c : Metrics.counter;
  repairs : Metrics.counter option;
  policy : Policy.t;
  faults : Faults.t;
  guard : Guard.t option;
  colgen : Path_pool.t option;
  (* Persistent repost scratch — one per run, never shared across
     domains (pooled sweeps create their own driver per task). *)
  delta : Bulletin_board.delta;
  outage : Faults.outage option;
  (* The live down-set, refreshed by [outage]; [None] while every edge
     is alive, so outage-free posts keep the clean sparse path. *)
  mutable down : bool array option;
  mutable live : live option;
  (* The growing state: the active instance, the admissions (newest
     first) and the scratch pool sized to the active dimension.
     Without [colgen] none of these ever move. *)
  mutable inst : Instance.t;
  mutable grown : (int * int array) list;
  mutable pool : Vec.Pool.t;
}

let restore inst policy b =
  (* [restore], not [post ~edge_latencies]: it re-verifies whether the
     checkpointed latencies are exactly the flow-induced ones, so a
     resumed run makes the same sparse/full repost decisions as the
     uninterrupted one. *)
  let board =
    Bulletin_board.restore inst ~time:b.posted_at ~flow:b.board_flow
      ~edge_latencies:b.board_latencies
  in
  { board; kernel = Rate_kernel.build inst policy ~board }

let fail msg = invalid_arg ("Driver.run: " ^ msg)

let create ?(probe = Probe.null) ?(metrics = Metrics.null) ?(spans = Span.null)
    ?(faults = Faults.plan Faults.none) ?guard ?colgen ?resume ~phases
    ~steps inst policy ~init =
  if phases < 0 then fail "negative run length";
  if steps < 1 then fail "fewer than one step per update";
  (match colgen with
  | Some cg when not (Path_pool.instance cg == inst) ->
      fail "colgen pool was seeded over a different instance"
  | _ -> ());
  let active, grown, first, f0 =
    match resume with
    | None ->
        if not (Flow.is_feasible inst init) then
          fail "infeasible initial flow";
        let sp = Span.enter spans "project" in
        let f0 = Flow.project inst init in
        Span.exit spans sp;
        (inst, [], 0, f0)
    | Some r ->
        (* Replay validates every recorded path against the pool's graph
           and commodities — a hand-edited path set is refused here, and
           the dimension check below catches a flow that does not match
           the replayed active set. *)
        let active =
          match (r.grown_paths, colgen) with
          | [], _ -> inst
          | _ :: _, None ->
              fail
                "snapshot records grown paths but no colgen pool was supplied"
          | gps, Some cg -> Path_pool.replay cg ~grown:gps
        in
        if Vec.dim r.start_flow <> Instance.path_count active then
          fail "snapshot flow has wrong dimension";
        (active, List.rev r.grown_paths, r.next_index, Vec.copy r.start_flow)
  in
  let b =
    {
      probe;
      spans;
      reposts = Metrics.counter metrics "board_reposts";
      repost_edges = Metrics.counter metrics "repost_dirty_edges";
      repost_paths = Metrics.counter metrics "repost_dirty_paths";
      rebuilds = Metrics.counter metrics "kernel_rebuilds";
      (* Fault-free and colgen-free runs keep their metric snapshots
         exactly as before those layers existed. *)
      faults_c =
        Metrics.counter
          (if Faults.is_null faults then Metrics.null else metrics)
          "faults_injected";
      grown_c =
        Metrics.counter
          (match colgen with Some _ -> metrics | None -> Metrics.null)
          "paths_grown";
      repairs =
        Option.map (fun _ -> Metrics.counter metrics "guard_repairs") guard;
      policy;
      faults;
      guard;
      colgen;
      delta = Bulletin_board.delta ();
      outage =
        Faults.outage_start faults
          ~edges:(Staleroute_graph.Digraph.edge_count (Instance.graph inst))
          ~phase:first;
      down = None;
      live =
        Option.bind resume (fun r ->
            Option.map (restore active policy) r.posted);
      inst = active;
      grown;
      pool = Vec.Pool.create ~dim:(Instance.path_count active);
    }
  in
  (b, f0)

let instance b = b.inst

let live b =
  match b.live with
  | Some l -> l
  | None -> invalid_arg "Boundary: no board posted yet"

let widen b f =
  let n = Instance.path_count b.inst in
  if Vec.dim f < n then Vec.extend f ~dim:n else f

let fault_parts = function
  | Faults.Drop -> ("drop", 0.)
  | Faults.Delay f -> ("delay", f)
  | Faults.Partial p -> ("partial", p)
  | Faults.Noise s -> ("noise", s)

let emit_fault b ~time ~index fault =
  let kind, arg = fault_parts fault in
  if Probe.enabled b.probe then
    Probe.emit b.probe (Probe.Fault_injected { time; index; kind; arg });
  Metrics.incr b.faults_c

(* A new revision is announced before its kernel compiles and installed
   after: every post, repost and growth emits this bracket. *)
let announce b ~time =
  if Probe.enabled b.probe then
    Probe.emit b.probe (Probe.Board_repost { time });
  Metrics.incr b.reposts

let install b ~time board kernel =
  if Probe.enabled b.probe then
    Probe.emit b.probe (Probe.Kernel_rebuild { time });
  Metrics.incr b.rebuilds;
  assert (Rate_kernel.is_current kernel ~board);
  b.live <- Some { board; kernel }

(* Post the board that lands for update [index] (clean for [None]) and
   compile its kernel.  Over a live posting the board is a delta repost
   and the kernel refreshes in place ([Rate_kernel.update], bitwise
   identical to a fresh build) over the changed paths; otherwise both
   are built from scratch.  Dead edges are pinned only while the
   down-set is non-empty. *)
let publish b ~index fault ~time f =
  let prev = match b.live with Some l -> Some l.board | None -> None in
  let sp =
    Span.enter b.spans
      (match prev with Some _ -> "board_repost" | None -> "board_post")
  in
  let board =
    Faults.board ~delta:b.delta ?down:b.down b.faults ~index fault b.inst ~time
      ~prev f
  in
  Span.exit b.spans sp;
  announce b ~time;
  let kernel =
    match b.live with
    | Some l ->
        Metrics.incr ~by:(Bulletin_board.dirty_edges b.delta) b.repost_edges;
        Metrics.incr ~by:(Bulletin_board.dirty_paths b.delta) b.repost_paths;
        let changed =
          ( Bulletin_board.changed_paths b.delta,
            Bulletin_board.changed_count b.delta )
        in
        let sp = Span.enter b.spans "kernel_update" in
        let kernel = Rate_kernel.update ~changed l.kernel ~board in
        Span.exit b.spans sp;
        kernel
    | None ->
        let sp = Span.enter b.spans "kernel_build" in
        let kernel = Rate_kernel.build b.inst b.policy ~board in
        Span.exit b.spans sp;
        kernel
  in
  install b ~time board kernel

(* A clean post draws nothing from the plan, so its index is moot. *)
let post b ~time f = publish b ~index:0 None ~time f

type attempt = Posted | Kept | Delayed of int

let attempt b ~index ~time ~slots f =
  match (Faults.fault_at b.faults ~index, b.live) with
  | Some Faults.Drop, Some _ ->
      emit_fault b ~time ~index Faults.Drop;
      Kept
  | Some (Faults.Delay fraction as fault), Some _ ->
      emit_fault b ~time ~index fault;
      if slots < 2 then Kept
      else
        let ideal =
          int_of_float (Float.round (fraction *. float_of_int slots))
        in
        Delayed (max 1 (min (slots - 1) ideal))
  | Some (Faults.Drop | Faults.Delay _ | Faults.Partial _), None ->
      (* Nothing was actually injected: no event. *)
      post b ~time f;
      Posted
  | fault, _ ->
      (match fault with
      | Some fault -> emit_fault b ~time ~index fault
      | None -> ());
      publish b ~index fault ~time f;
      Posted

let outage b ~index ~time f =
  match b.outage with
  | None -> ()
  | Some st ->
      Faults.outage_step st ~phase:index ~on_change:(fun ~edge ~down ->
          if Probe.enabled b.probe then
            Probe.emit b.probe
              (if down then Probe.Edge_down { time; index; edge }
               else Probe.Edge_up { time; index; edge });
          Metrics.incr b.faults_c);
      b.down <-
        (match Faults.outage_down st with
        | None -> None
        | Some down ->
            let partitioned =
              Flow.evacuate b.inst ~dead:(Faults.path_dead b.inst ~down) f
            in
            Guard.check_partition ?guard:b.guard ~probe:b.probe b.inst ~index
              ~time partitioned;
            Some down)

let grow b ~index ~time f =
  match b.colgen with
  | None -> f
  | Some cg -> (
      let l = live b in
      let sp = Span.enter b.spans "colgen_price" in
      (* While edges are dead, pricing runs over the alive network: dead
         edges weigh [infinity] (pricing accepts it), so the oracle can
         admit a detour column but never a dead one. *)
      let pricing_latencies =
        match b.down with
        | None -> l.board.Bulletin_board.edge_latencies
        | Some down ->
            Faults.alive_latencies ~down l.board.Bulletin_board.edge_latencies
      in
      let grown_set =
        Path_pool.grow cg b.inst ~edge_latencies:pricing_latencies
      in
      Span.exit b.spans sp;
      match grown_set with
      | None -> f
      | Some (inst', adds) ->
          let n0 = Instance.path_count b.inst in
          let n' = Instance.path_count inst' in
          if Probe.enabled b.probe then
            List.iteri
              (fun i (a : Path_pool.growth) ->
                Probe.emit b.probe
                  (Probe.Path_growth
                     {
                       time;
                       index;
                       commodity = a.commodity;
                       cost = a.cost;
                       incumbent = a.incumbent;
                       path_count = n0 + i + 1;
                     }))
              adds;
          Metrics.incr ~by:(List.length adds) b.grown_c;
          announce b ~time;
          let board = Bulletin_board.repost_grown inst' ~prev:l.board in
          let sp = Span.enter b.spans "kernel_grow" in
          let kernel = Rate_kernel.build inst' b.policy ~board in
          Span.exit b.spans sp;
          install b ~time board kernel;
          b.inst <- inst';
          b.grown <-
            List.rev_append
              (List.map
                 (fun (a : Path_pool.growth) ->
                   (a.commodity, Staleroute_graph.Path.edge_id_array a.path))
                 adds)
              b.grown;
          b.pool <- Vec.Pool.create ~dim:n';
          Vec.extend f ~dim:n')

let integrate b scheme ~t0 ~tau ~steps f =
  let { board; kernel } = live b in
  assert (Rate_kernel.is_current kernel ~board);
  let sp = Span.enter b.spans "integrate" in
  Integrator.integrate_phase_into ~probe:b.probe ~t0 scheme b.inst ~pool:b.pool
    ~deriv_into:(Rate_kernel.flow_derivative_into kernel)
    ~f ~tau ~steps;
  Span.exit b.spans sp

let guard_check b ~index ~time f =
  match b.guard with
  | None -> ()
  | Some gd ->
      (* [record], not enter/exit: a fail-fast guard raises out of the
         boundary and [record] keeps the span stack balanced. *)
      Span.record b.spans "guard_check" (fun () ->
          Guard.check gd ~probe:b.probe ?repairs:b.repairs b.inst ~index ~time
            f)

let board_state b =
  Option.map
    (fun l ->
      {
        posted_at = l.board.Bulletin_board.posted_at;
        board_flow = Vec.copy l.board.Bulletin_board.flow;
        board_latencies = Array.copy l.board.Bulletin_board.edge_latencies;
      })
    b.live

let grown_paths b = List.rev b.grown
