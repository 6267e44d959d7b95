module Vec = Staleroute_util.Vec
module Numerics = Staleroute_util.Numerics
module Latency = Staleroute_latency.Latency

type result = {
  flow : Flow.t;
  objective : float;
  gap : float;
  iterations : int;
}

(* Edge-space solver over scratch arrays allocated once per solve.  Every
   float expression, and every summation order, is the one the
   path-space formulation evaluates (gather edge loads as
   [Flow.edge_flows] does, then sum [term] over edges in index order),
   so iterates are bitwise those of the textbook loop; only repeated
   work is skipped.  A line evaluation re-gathers just the edges whose
   load can differ from the current iterate's and reuses the cached
   term everywhere else. *)
let minimize ?(max_iter = 10_000) ?(tol = 1e-8) ~term ~slope inst =
  let n = Instance.path_count inst in
  let m = Staleroute_graph.Digraph.edge_count (Instance.graph inst) in
  let lat = Array.init m (Instance.latency inst) in
  let offsets = Instance.csr_offsets inst and edges = Instance.csr_edges inst in
  let row_offsets = Instance.edge_csr_offsets inst
  and row_paths = Instance.edge_csr_paths inst in
  let f = Flow.uniform inst in
  (* The current iterate's edge loads, and [term] at them. *)
  let load = Array.make m 0. and cost = Array.make m 0. in
  let zero_cost = Array.init m (fun e -> term lat.(e) 0.) in
  let marg = Array.make m 0. and grad = Array.make n 0. in
  (* br: all-or-nothing vertex; d: pairwise direction (mass of each
     commodity's worst used path moved onto its best path). *)
  let br = Vec.create n 0. and d = Vec.create n 0. in
  (* Edges on a path with [d <> 0]: the only loads a pairwise step moves. *)
  let moved = Array.make m false and moved_edges = Array.make m 0 in
  let n_moved = ref 0 in
  (* [cost] with the moved edges' terms taken at the trial step. *)
  let pair_cost = Array.make m 0. in
  let trial = Array.make m 0. and trial_cost = Array.make m 0. in
  let sum_costs costs =
    let acc = ref 0. in
    for e = 0 to m - 1 do
      acc := !acc +. costs.(e)
    done;
    !acc
  in
  let mark_moved p =
    for k = offsets.(p) to offsets.(p + 1) - 1 do
      let e = edges.(k) in
      if not moved.(e) then begin
        moved.(e) <- true;
        moved_edges.(!n_moved) <- e;
        incr n_moved
      end
    done
  in
  (* [f + gamma d]: unmoved edges keep their cached term; a moved edge
     re-gathers its row, which lists paths in ascending order — the
     order [Flow.edge_flows] adds them in. *)
  let line_pair gamma =
    for i = 0 to !n_moved - 1 do
      let e = moved_edges.(i) in
      let acc = ref 0. in
      for j = row_offsets.(e) to row_offsets.(e + 1) - 1 do
        let p = row_paths.(j) in
        let gp = Vec.unsafe_get f p +. (gamma *. Vec.unsafe_get d p) in
        if gp <> 0. then acc := !acc +. gp
      done;
      pair_cost.(e) <- term lat.(e) !acc
    done;
    sum_costs pair_cost
  in
  (* [(1 - s) f + s br]: a full gather; an edge left at load 0 lies
     outside supp f ∪ supp br and reads its cached [term e 0]. *)
  let line_classic s =
    Array.fill trial 0 m 0.;
    for p = 0 to n - 1 do
      let gp = ((1. -. s) *. Vec.unsafe_get f p) +. (s *. Vec.unsafe_get br p) in
      if gp <> 0. then
        for k = offsets.(p) to offsets.(p + 1) - 1 do
          let e = edges.(k) in
          trial.(e) <- trial.(e) +. gp
        done
    done;
    for e = 0 to m - 1 do
      let x = trial.(e) in
      trial_cost.(e) <- (if x = 0. then zero_cost.(e) else term lat.(e) x)
    done;
    sum_costs trial_cost
  in
  let rec loop iter =
    (* One gather per iteration feeds the objective, the gradient and
       the duality gap. *)
    Array.fill load 0 m 0.;
    for p = 0 to n - 1 do
      let fp = Vec.unsafe_get f p in
      if fp <> 0. then
        for k = offsets.(p) to offsets.(p + 1) - 1 do
          let e = edges.(k) in
          load.(e) <- load.(e) +. fp
        done
    done;
    for e = 0 to m - 1 do
      cost.(e) <- term lat.(e) load.(e);
      marg.(e) <- slope lat.(e) load.(e)
    done;
    let here = sum_costs cost in
    for p = 0 to n - 1 do
      let acc = ref 0. in
      for k = offsets.(p) to offsets.(p + 1) - 1 do
        acc := !acc +. marg.(edges.(k))
      done;
      grad.(p) <- !acc
    done;
    Vec.fill br 0.;
    Vec.fill d 0.;
    for i = 0 to !n_moved - 1 do
      moved.(moved_edges.(i)) <- false
    done;
    n_moved := 0;
    for ci = 0 to Instance.commodity_count inst - 1 do
      let ps = Instance.paths_of_commodity inst ci in
      let best = ref ps.(0) and worst = ref (-1) in
      Array.iter
        (fun p ->
          if grad.(p) < grad.(!best) then best := p;
          if Vec.get f p > 0. && (!worst < 0 || grad.(p) > grad.(!worst)) then
            worst := p)
        ps;
      Vec.set br !best (Instance.demand inst ci);
      if !worst >= 0 && !worst <> !best then begin
        let moving = Vec.get f !worst in
        Vec.set d !best moving;
        Vec.set d !worst (-.moving);
        mark_moved !best;
        mark_moved !worst
      end
    done;
    (* Duality gap <∇, f - br> bounds the suboptimality from above. *)
    let gap = ref 0. in
    for p = 0 to n - 1 do
      gap := !gap +. (grad.(p) *. (Vec.unsafe_get f p -. Vec.unsafe_get br p))
    done;
    let gap = !gap in
    if gap <= tol || iter >= max_iter then
      { flow = f; objective = here; gap; iterations = iter }
    else begin
      (* Candidate 1: pairwise step along d (additive).  Candidate 2:
         classic step towards the all-or-nothing vertex (convex mix).
         The pairwise step converges linearly but can stall when the
         worst path carries little mass; the classic step never stalls
         but zigzags.  Take whichever wins the line search. *)
      Array.blit cost 0 pair_cost 0 m;
      let gamma_pair = Numerics.golden_section_min ~tol:1e-12 line_pair 0. 1. in
      let gamma_classic =
        Numerics.golden_section_min ~tol:1e-12 line_classic 0. 1.
      in
      let value_pair = line_pair gamma_pair in
      let value_classic = line_classic gamma_classic in
      if Float.min value_pair value_classic < here then begin
        if value_pair <= value_classic then
          for p = 0 to n - 1 do
            (* Clip the tiny negatives produced by gamma ~ 1 rounding. *)
            Vec.unsafe_set f p
              (Float.max 0.
                 (Vec.unsafe_get f p +. (gamma_pair *. Vec.unsafe_get d p)))
          done
        else
          for p = 0 to n - 1 do
            Vec.unsafe_set f p
              (((1. -. gamma_classic) *. Vec.unsafe_get f p)
              +. (gamma_classic *. Vec.unsafe_get br p))
          done
      end;
      loop (iter + 1)
    end
  in
  loop 0

let equilibrium ?(spans = Staleroute_obs.Span.null) ?max_iter ?tol inst =
  Staleroute_obs.Span.record spans "fw_solve" (fun () ->
      minimize ?max_iter ?tol ~term:Latency.integral ~slope:Latency.eval inst)

let optimum_potential ?max_iter ?tol inst =
  (equilibrium ?max_iter ?tol inst).objective
