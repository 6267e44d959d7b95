module Vec = Staleroute_util.Vec
module Latency = Staleroute_latency.Latency

type result = {
  flow : Flow.t;
  objective : float;
  gap : float;
  iterations : int;
}

(* Gauss–Seidel pairwise path equilibration over scratch arrays allocated
   once per solve.  A sweep visits the commodities in index order; each
   prices its paths at the current edge loads, takes the cheapest path
   [q] and moves mass from every used path [p] onto [q] until the two
   marginals balance (or [p] empties).  Loads are updated in place as
   mass moves, so later pairs see earlier moves.  Every sweep ends with
   a fresh [Flow.edge_flows_into] gather, which yields the objective
   (bitwise [Potential.phi]/[Social.cost]) and the stop certificate. *)
let minimize ?(max_iter = 10_000) ?(tol = 1e-8) ~term ~slope inst =
  let n = Instance.path_count inst in
  let m = Staleroute_graph.Digraph.edge_count (Instance.graph inst) in
  let lat = Array.init m (Instance.latency inst) in
  let offsets = Instance.csr_offsets inst and edges = Instance.csr_edges inst in
  let commodities =
    Array.init (Instance.commodity_count inst)
      (Instance.paths_of_commodity inst)
  in
  let f = Flow.uniform inst in
  let load = Array.make m 0. and price = Array.make n 0. in
  let used = Instance.used_edges inst in
  (* [on_q] and [on_p] mark the target and source paths' edges with the
     current stamp; [minus] lists P\Q and [plus] lists Q\P. *)
  let on_q = Array.make m (-1) and on_p = Array.make m (-1) in
  let minus = Array.make m 0 and plus = Array.make m 0 in
  let n_minus = ref 0 and n_plus = ref 0 and stamp = ref 0 in
  let price_path p =
    let acc = ref 0. in
    for k = offsets.(p) to offsets.(p + 1) - 1 do
      let e = edges.(k) in
      acc := !acc +. slope lat.(e) load.(e)
    done;
    !acc
  in
  (* g(δ): the marginal of P minus that of Q, restricted to P△Q, after
     moving δ from P to Q.  Non-increasing in δ for convex objectives. *)
  let excess delta =
    let acc = ref 0. in
    for i = 0 to !n_minus - 1 do
      let e = minus.(i) in
      acc := !acc +. slope lat.(e) (load.(e) -. delta)
    done;
    for i = 0 to !n_plus - 1 do
      let e = plus.(i) in
      acc := !acc -. slope lat.(e) (load.(e) +. delta)
    done;
    !acc
  in
  (* Illinois (modified regula falsi) on a bracket [a, b] with
     g(a) > 0 > g(b); a trial point outside the open bracket falls back
     to bisection.  Linear g is solved by the first trial point. *)
  let rec root a ga b gb side floor evals =
    let c = ((a *. gb) -. (b *. ga)) /. (gb -. ga) in
    let c = if c > a && c < b then c else 0.5 *. (a +. b) in
    let gc = excess c in
    let mid = 0.5 *. (a +. b) in
    if Float.abs gc <= floor || evals >= 64 || mid <= a || mid >= b then c
    else if gc > 0. then
      root c gc b (if side > 0 then 0.5 *. gb else gb) 1 floor (evals + 1)
    else root a (if side < 0 then 0.5 *. ga else ga) c gc (-1) floor (evals + 1)
  in
  let shift p q delta =
    for i = 0 to !n_minus - 1 do
      let e = minus.(i) in
      load.(e) <- load.(e) -. delta
    done;
    for i = 0 to !n_plus - 1 do
      let e = plus.(i) in
      load.(e) <- load.(e) +. delta
    done;
    Vec.set f p (Vec.get f p -. delta);
    Vec.set f q (Vec.get f q +. delta)
  in
  let equilibrate ~q ~q_stamp p =
    incr stamp;
    let s = !stamp in
    n_minus := 0;
    for k = offsets.(p) to offsets.(p + 1) - 1 do
      let e = edges.(k) in
      on_p.(e) <- s;
      if on_q.(e) <> q_stamp then begin
        minus.(!n_minus) <- e;
        incr n_minus
      end
    done;
    n_plus := 0;
    for k = offsets.(q) to offsets.(q + 1) - 1 do
      let e = edges.(k) in
      if on_p.(e) <> s then begin
        plus.(!n_plus) <- e;
        incr n_plus
      end
    done;
    let g0 = excess 0. in
    if g0 > 0. then begin
      let fp = Vec.get f p in
      let gp = excess fp in
      let delta =
        if gp >= 0. then fp
        else
          (* Stop at the float noise of the two path marginals, or once
             the imbalance has shrunk by 1e12. *)
          let noise = 1e-15 *. (price.(p) +. price.(q)) in
          root 0. g0 fp gp 0 (Float.max (1e-12 *. g0) noise) 1
      in
      shift p q delta
    end
  in
  let sweep () =
    Array.iter
      (fun ps ->
        let q = ref ps.(0) in
        Array.iter
          (fun p ->
            price.(p) <- price_path p;
            if price.(p) < price.(!q) then q := p)
          ps;
        let q = !q in
        incr stamp;
        let q_stamp = !stamp in
        for k = offsets.(q) to offsets.(q + 1) - 1 do
          on_q.(edges.(k)) <- q_stamp
        done;
        Array.iter
          (fun p ->
            if p <> q && Vec.get f p > 0. then equilibrate ~q ~q_stamp p)
          ps)
      commodities
  in
  (* Edge loads by [Flow.edge_flows_into] (unused edges stay 0: no
     move touches them), [term] summed in edge order (as
     [Potential.phi]/[Social.cost]), and the certificate
     gap = Σ_P f_P (c_P − c_min,i), a sum of non-negative terms.  Given
     feasibility it equals the duality gap ⟨∇, f − br⟩ at the
     all-or-nothing vertex [br], so it bounds the suboptimality. *)
  let gather () =
    Flow.edge_flows_into inst f ~edges:used ~count:(Array.length used) load;
    let objective = ref 0. in
    for e = 0 to m - 1 do
      objective := !objective +. term lat.(e) load.(e)
    done;
    let gap = ref 0. in
    Array.iter
      (fun ps ->
        let low = ref infinity in
        Array.iter
          (fun p ->
            price.(p) <- price_path p;
            low := Float.min !low price.(p))
          ps;
        Array.iter
          (fun p -> gap := !gap +. (Vec.get f p *. (price.(p) -. !low)))
          ps)
      commodities;
    (!objective, !gap)
  in
  let rec loop sweeps =
    let objective, gap = gather () in
    if gap <= tol || sweeps >= max_iter then
      { flow = f; objective; gap; iterations = sweeps }
    else begin
      sweep ();
      loop (sweeps + 1)
    end
  in
  loop 0

let equilibrium ?(spans = Staleroute_obs.Span.null) ?max_iter ?tol inst =
  Staleroute_obs.Span.record spans "fw_solve" (fun () ->
      minimize ?max_iter ?tol ~term:Latency.integral ~slope:Latency.eval inst)

let optimum_potential ?max_iter ?tol inst =
  (equilibrium ?max_iter ?tol inst).objective
