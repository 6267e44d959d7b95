open Staleroute_wardrop
module Vec = Staleroute_util.Vec

(* A built-in µ(ℓ_P, ℓ_Q) as a function of ℓ_Q < ℓ_P: 1 at or below a
   breakpoint, affine between the breakpoint and ℓ_P.
   - [Step]: better response, 1 for every strictly cheaper ℓ_Q.
   - [Affine]: linear and scaled-linear, [c·(ℓ_P − ℓ_Q)] with the
     breakpoint [width = 1/c] below ℓ_P.
   - [Relative]: [scale·(ℓ_P − ℓ_Q)/ℓ_P].  Its breakpoint
     ℓ_P(1 − 1/scale) is never above 0 for scale ≤ 1, where the affine
     value is already 1 up to rounding, so on a nonnegative board it
     never saturates. *)
type shape =
  | Step
  | Affine of { c : float; width : float }
  | Relative of float

(* Policies with [Custom] sampling or migration (or a built-in migration
   whose parameter lies outside its domain, see [shape_of]) compile to
   a dense m×m block per commodity: R_PQ = σ_PQ·µ(ℓ_P, ℓ_Q). *)
type dense = {
  mat_off : int array;  (* commodity ci's m*m block starts at mat_off.(ci) *)
  mat : float array;  (* row-major dense blocks, R_PP = 0 *)
  dsigma : float array;  (* compiler scratch, one commodity's σ *)
}

(* Every other policy compiles to a factored block: the commodity's
   paths sorted by posted latency, and per sorted position what the
   prefix-sum evaluation needs.  Positions of commodity ci occupy
   [off.(ci) .. off.(ci+1) - 1] of every per-position array. *)
type factored = {
  shape : shape;
  off : int array;
  path : int array;  (* position -> global path index, by (ℓ, index) *)
  lat_s : float array;  (* posted latency by position *)
  sig_s : float array;  (* σ by position *)
  rel : float array;  (* ℓ minus its cluster's first latency *)
  wsc : float array;  (* [Relative]: 1/ℓ_Q, the weight of f_Q in its sums *)
  first : bool array;  (* the position opens a cluster *)
  gt : int array;  (* first local position with a strictly larger ℓ *)
  sat : int array;  (* first origin position saturating the inflow;
                       the cluster's end under [Relative] *)
  sigma : float array;  (* σ_Q by global path index *)
  pairwise : bool array;  (* per commodity: board not factorable *)
  mark : bool array;  (* per commodity: already recompiled in [update] *)
  (* Evaluation scratch, length max m + 1, suffix sums over the sorted
     order (the compiler borrows it for its prefix sums). *)
  g : float array;  (* Σ f/ℓ *)
  qa : float array;  (* Σ w·rel, within a cluster *)
  qb : float array;  (* Σ w, within a cluster *)
  fs : float array;  (* Σ f *)
}

type form = Dense of dense | Factored of factored

type t = {
  inst : Instance.t;
  policy : Policy.t;
  n : int;
  commodities : int;
  paths_of : int array array;  (* shared with the instance - not mutated *)
  row_sum : float array;  (* total outflow rate per unit mass, global index *)
  form : form;
  mutable board : Bulletin_board.t;  (* the posting the kernel encodes *)
}

(* Every stored value of a block is written by its commodity's compile
   ([compile_dense] or [compile_factored]), for [build] and [update]
   alike, from the posted board alone.  The factored compile also
   starts from the previous sort order, but the order it reaches is the
   unique sort by (latency, path index), so an update chain and a
   fresh build store the same bits — which checkpoint/resume relies
   on. *)

let shape_of (policy : Policy.t) =
  match (policy.Policy.sampling, policy.Policy.migration) with
  | Sampling.Custom _, _ | _, Migration.Custom _ -> None
  | _, Migration.Better_response -> Some Step
  | _, Migration.Linear { ell_max } when ell_max >= 0. ->
      Some (Affine { c = 1. /. ell_max; width = ell_max })
  | _, Migration.Scaled_linear { alpha } when alpha >= 0. ->
      Some (Affine { c = alpha; width = 1. /. alpha })
  | _, Migration.Relative { scale } when scale > 0. && scale <= 1. ->
      Some (Relative scale)
  | _ -> None

(* Compile commodity [ci]'s dense block against [board]; origin-
   dependent sampling recomputes σ per row. *)
let compile_dense t d ~board ci =
  let lat = board.Bulletin_board.path_latencies in
  let flow = board.Bulletin_board.flow in
  let sampling = t.policy.Policy.sampling in
  let migration = t.policy.Policy.migration in
  let origin_indep = Sampling.origin_independent sampling in
  let ps = t.paths_of.(ci) in
  let m = Array.length ps in
  let off = d.mat_off.(ci) in
  let mat = d.mat and sigma = d.dsigma in
  if origin_indep then
    Sampling.distribution_into sampling t.inst ~commodity:ci ~flow
      ~latencies:lat ~from_:ps.(0) ~dst:sigma;
  for a = 0 to m - 1 do
    let p = Array.unsafe_get ps a in
    if not origin_indep then
      Sampling.distribution_into sampling t.inst ~commodity:ci ~flow
        ~latencies:lat ~from_:p ~dst:sigma;
    let lp = Array.unsafe_get lat p in
    let base = off + (a * m) in
    let sum = ref 0. in
    for b = 0 to m - 1 do
      if b <> a then begin
        Array.unsafe_set mat (base + b)
          (Array.unsafe_get sigma b
          *. Migration.prob migration ~ell_p:lp
               ~ell_q:(Array.unsafe_get lat (Array.unsafe_get ps b)));
        sum := !sum +. Array.unsafe_get mat (base + b)
      end
    done;
    t.row_sum.(p) <- !sum
  done

(* Sort positions [o .. o+m-1] by (posted latency, path index) in
   place, starting from the previous order: consecutive posts barely
   reorder, and the sort allocates nothing.  [lat_s] is re-gathered
   from the new board first. *)
let sort_block z ~lat o m =
  let path = z.path and lat_s = z.lat_s in
  for k = o to o + m - 1 do
    Array.unsafe_set lat_s k (Array.unsafe_get lat (Array.unsafe_get path k))
  done;
  for k = o + 1 to o + m - 1 do
    let pk = Array.unsafe_get path k and lk = Array.unsafe_get lat_s k in
    let j = ref (k - 1) in
    while
      !j >= o
      &&
      let lj = Array.unsafe_get lat_s !j in
      lj > lk || (lj = lk && Array.unsafe_get path !j > pk)
    do
      Array.unsafe_set path (!j + 1) (Array.unsafe_get path !j);
      Array.unsafe_set lat_s (!j + 1) (Array.unsafe_get lat_s !j);
      decr j
    done;
    Array.unsafe_set path (!j + 1) pk;
    Array.unsafe_set lat_s (!j + 1) lk
  done

(* Compile commodity [ci]'s factored block against [board].

   With σ origin-independent, the derivative of path P is
     ḟ_P = σ_P Σ_{ℓ_Q > ℓ_P} f_Q µ(ℓ_Q, ℓ_P) − f_P Σ_Q σ_Q µ(ℓ_P, ℓ_Q).
   Over the sorted order the inflow splits into saturated origins (a
   suffix of f) and an affine window [gt, sat), and the row sum into
   saturated destinations (a prefix of σ) and a window [lo, lt).  A
   window sum Σ w (ℓ_Q − ℓ_P) is formed as Σ w·rel − rel_P Σ w with rel
   measured from the first latency of a cluster.  Under [Affine] the
   sorted order is split wherever a gap reaches the window width, so
   no window crosses a cluster; under [Relative] (weights f_Q/ℓ_Q, no
   saturation) wherever the latency more than doubles, so the clusters
   above P sit above 2ℓ_P.  Either way no sum ever subtracts across a
   dead edge's 1e12.

   A commodity whose posted latencies are not all finite (or, under
   [Relative], not all nonnegative) is flagged [pairwise]: its row sums
   are computed pair by pair here and its derivative pair by pair at
   evaluation, as the dense kernel would, with no matrix stored. *)
let compile_factored t z ~board ci =
  let lat = board.Bulletin_board.path_latencies in
  let flow = board.Bulletin_board.flow in
  let ps = t.paths_of.(ci) in
  let m = Array.length ps in
  let o = z.off.(ci) in
  let s0 = z.g in
  Sampling.distribution_into t.policy.Policy.sampling t.inst ~commodity:ci
    ~flow ~latencies:lat ~from_:ps.(0) ~dst:s0;
  let relative = match z.shape with Relative _ -> true | _ -> false in
  let factorable = ref true in
  for j = 0 to m - 1 do
    let p = Array.unsafe_get ps j in
    z.sigma.(p) <- Array.unsafe_get s0 j;
    let l = Array.unsafe_get lat p in
    if
      (not (Float.is_finite l))
      || (relative && not (l = 0. || (l > 0. && Float.is_finite (1. /. l))))
    then factorable := false
  done;
  z.pairwise.(ci) <- not !factorable;
  if not !factorable then begin
    let migration = t.policy.Policy.migration in
    for a = 0 to m - 1 do
      let p = Array.unsafe_get ps a in
      let lp = Array.unsafe_get lat p in
      let sum = ref 0. in
      for b = 0 to m - 1 do
        if b <> a then
          sum :=
            !sum
            +. Array.unsafe_get s0 b
               *. Migration.prob migration ~ell_p:lp
                    ~ell_q:(Array.unsafe_get lat (Array.unsafe_get ps b))
      done;
      t.row_sum.(p) <- !sum
    done
  end
  else begin
    sort_block z ~lat o m;
    let lat_s = z.lat_s and first = z.first in
    (* Clusters: under [Affine] a new one opens at every gap of at
       least the window width, under [Relative] wherever the latency
       more than doubles; ties never split. *)
    first.(o) <- true;
    for k = o + 1 to o + m - 1 do
      let prev = lat_s.(k - 1) and cur = lat_s.(k) in
      first.(k) <-
        (match z.shape with
        | Step -> false
        | Affine { width; _ } -> cur > prev && cur -. prev >= width
        | Relative _ -> cur > 2. *. prev)
    done;
    (* Descending: the end of each tie group ([gt]) and of each cluster
       (kept in [sat] until the ascending pass clamps against it). *)
    let gtr = ref m and cend = ref m in
    for k = m - 1 downto 0 do
      if k = m - 1 || lat_s.(o + k + 1) <> lat_s.(o + k) then gtr := k + 1;
      z.gt.(o + k) <- !gtr;
      z.sat.(o + k) <- !cend;
      if first.(o + k) then cend := k
    done;
    (* Ascending: anchors, weights, saturation points and row sums.
       The compiler borrows the evaluation scratch: [fs] holds the
       exclusive prefix sums of σ over the commodity, [qa] and [qb]
       those of σ and σ·rel within the cluster; [sl] is the prefix sum
       of σ·ℓ, [sl_cs] its value at the cluster's start. *)
    let fs = z.fs and qa = z.qa and qb = z.qb in
    let anchor = ref 0. and cs = ref 0 and lt = ref 0 in
    let sl = ref 0. and sl_cs = ref 0. in
    let ptr = ref 0 and lo = ref 0 in
    for k = 0 to m - 1 do
      let i = o + k in
      let l = lat_s.(i) in
      let p = z.path.(i) in
      let sg = z.sigma.(p) in
      z.sig_s.(i) <- sg;
      if first.(i) then begin
        anchor := l;
        cs := k;
        sl_cs := !sl
      end;
      if k = 0 || l <> lat_s.(i - 1) then lt := k;
      let r = l -. !anchor in
      z.rel.(i) <- r;
      if k = 0 then fs.(0) <- 0.
      else fs.(k) <- fs.(k - 1) +. z.sig_s.(i - 1);
      if first.(i) then begin
        qa.(k) <- 0.;
        qb.(k) <- 0.
      end
      else begin
        qa.(k) <- qa.(k - 1) +. z.sig_s.(i - 1);
        qb.(k) <- qb.(k - 1) +. (z.sig_s.(i - 1) *. z.rel.(i - 1))
      end;
      let lt = !lt in
      let row =
        match z.shape with
        | Step ->
            z.sat.(i) <- z.gt.(i);
            fs.(lt)
        | Affine { c; width } ->
            let thr = l +. width in
            while !ptr < m && lat_s.(o + !ptr) < thr do
              incr ptr
            done;
            z.sat.(i) <- Int.min (Int.max !ptr z.gt.(i)) z.sat.(i);
            let bp = l -. width in
            while !lo < k && lat_s.(o + !lo) <= bp do
              incr lo
            done;
            let lo = Int.min (Int.max !lo !cs) lt in
            if lo < lt then
              fs.(lo)
              +. c *. ((r *. (qa.(lt) -. qa.(lo))) -. (qb.(lt) -. qb.(lo)))
            else fs.(lo)
        | Relative scale ->
            (* Earlier clusters sit below ℓ/2, so their share
               ℓ·Σσ − Σσℓ cannot cancel; within the cluster the sums
               are anchored. *)
            z.wsc.(i) <- (if l > 0. then 1. /. l else 0.);
            if lt > 0 && l > 0. then
              scale /. l
              *. ((l *. fs.(!cs)) -. !sl_cs +. ((r *. qa.(lt)) -. qb.(lt)))
            else 0.
      in
      sl := !sl +. (sg *. l);
      t.row_sum.(p) <- row
    done
  end

let entry_count inst =
  let nc = Instance.commodity_count inst in
  let total = ref 0 in
  for ci = 0 to nc - 1 do
    let m = Array.length (Instance.paths_of_commodity inst ci) in
    total := !total + (m * m)
  done;
  !total

let check_board ~who n board =
  if
    Array.length board.Bulletin_board.path_latencies <> n
    || Vec.dim board.Bulletin_board.flow <> n
  then invalid_arg (who ^ ": board is over a different instance")

let compile t ~board ci =
  match t.form with
  | Dense d -> compile_dense t d ~board ci
  | Factored z -> compile_factored t z ~board ci

let build inst policy ~board =
  let n = Instance.path_count inst in
  check_board ~who:"Rate_kernel.build" n board;
  let nc = Instance.commodity_count inst in
  let paths_of = Array.init nc (Instance.paths_of_commodity inst) in
  let scratch_dim = max 1 (Instance.max_paths_in_commodity inst) in
  let form =
    match shape_of policy with
    | None ->
        let mat_off = Array.make (nc + 1) 0 in
        for ci = 0 to nc - 1 do
          let m = Array.length paths_of.(ci) in
          mat_off.(ci + 1) <- mat_off.(ci) + (m * m)
        done;
        Dense
          {
            mat_off;
            mat = Array.make (max 1 mat_off.(nc)) 0.;
            dsigma = Array.make scratch_dim 0.;
          }
    | Some shape ->
        let off = Array.make (nc + 1) 0 in
        for ci = 0 to nc - 1 do
          off.(ci + 1) <- off.(ci) + Array.length paths_of.(ci)
        done;
        (* Each block starts in path-index order; the compile sorts it. *)
        let path = Array.make n 0 in
        Array.iteri
          (fun ci ps -> Array.blit ps 0 path off.(ci) (Array.length ps))
          paths_of;
        let pos_f () = Array.make n 0. and pos_i () = Array.make n 0 in
        let scratch () = Array.make (scratch_dim + 1) 0. in
        Factored
          {
            shape;
            off;
            path;
            lat_s = pos_f ();
            sig_s = pos_f ();
            rel = pos_f ();
            wsc = pos_f ();
            first = Array.make n false;
            gt = pos_i ();
            sat = pos_i ();
            sigma = pos_f ();
            pairwise = Array.make nc false;
            mark = Array.make nc false;
            g = scratch ();
            qa = scratch ();
            qb = scratch ();
            fs = scratch ();
          }
  in
  let t =
    {
      inst;
      policy;
      n;
      commodities = nc;
      paths_of;
      row_sum = Array.make n 0.;
      form;
      board;
    }
  in
  for ci = 0 to nc - 1 do
    compile t ~board ci
  done;
  t

let update ?changed t ~board =
  check_board ~who:"Rate_kernel.update" t.n board;
  (match (t.form, changed) with
  | Factored z, Some (chg, count) ->
      (* Only commodities owning a listed path can have moved.  After
         [Instance.extend] a commodity's paths may sit in several runs
         of the global index; [mark] compiles each commodity once. *)
      for x = 0 to count - 1 do
        let ci = Instance.commodity_of_path t.inst chg.(x) in
        if not z.mark.(ci) then begin
          z.mark.(ci) <- true;
          compile_factored t z ~board ci
        end
      done;
      for x = 0 to count - 1 do
        z.mark.(Instance.commodity_of_path t.inst chg.(x)) <- false
      done
  | _ ->
      (* Dense blocks recompile in full: [Custom] closures may not be
         pure functions of the posted data, and a fresh build would
         re-invoke them. *)
      for ci = 0 to t.commodities - 1 do
        compile t ~board ci
      done);
  t.board <- board;
  t

let dim t = t.n
let revision t = Bulletin_board.revision t.board
let is_current t ~board = revision t = Bulletin_board.revision board

let rate t ~from_ q =
  if from_ < 0 || from_ >= t.n || q < 0 || q >= t.n then
    invalid_arg "Rate_kernel.rate: path index out of range";
  let ci = Instance.commodity_of_path t.inst from_ in
  if ci <> Instance.commodity_of_path t.inst q then 0.
  else
    match t.form with
    | Dense d ->
        let m = Array.length t.paths_of.(ci) in
        let a = Instance.local_index_of_path t.inst from_ in
        let b = Instance.local_index_of_path t.inst q in
        d.mat.(d.mat_off.(ci) + (a * m) + b)
    | Factored z ->
        if from_ = q then 0.
        else
          let lat = t.board.Bulletin_board.path_latencies in
          z.sigma.(q)
          *. Migration.prob t.policy.Policy.migration ~ell_p:lat.(from_)
               ~ell_q:lat.(q)

let eval_dense t d f dst ci =
  let ps = t.paths_of.(ci) in
  let m = Array.length ps in
  let off = d.mat_off.(ci) in
  (* Outflow first: ḟ_P starts at -f_P Σ_Q R_PQ ... *)
  for b = 0 to m - 1 do
    let p = Array.unsafe_get ps b in
    Vec.unsafe_set dst p
      (-.(Vec.unsafe_get f p *. Array.unsafe_get t.row_sum p))
  done;
  (* ... then each origin row scatters its inflow f_Q R_QP. *)
  for a = 0 to m - 1 do
    let fa = Vec.unsafe_get f (Array.unsafe_get ps a) in
    if fa <> 0. then begin
      let base = off + (a * m) in
      for b = 0 to m - 1 do
        let p = Array.unsafe_get ps b in
        Vec.unsafe_set dst p
          (Vec.unsafe_get dst p +. (fa *. Array.unsafe_get d.mat (base + b)))
      done
    end
  done

(* The dense evaluation with each σ_P µ(ℓ_Q, ℓ_P) formed on the fly. *)
let eval_pairwise t z f dst ci =
  let ps = t.paths_of.(ci) in
  let m = Array.length ps in
  let lat = t.board.Bulletin_board.path_latencies in
  let migration = t.policy.Policy.migration in
  for b = 0 to m - 1 do
    let p = Array.unsafe_get ps b in
    Vec.unsafe_set dst p
      (-.(Vec.unsafe_get f p *. Array.unsafe_get t.row_sum p))
  done;
  for a = 0 to m - 1 do
    let q = Array.unsafe_get ps a in
    let fa = Vec.unsafe_get f q in
    if fa <> 0. then begin
      let lq = Array.unsafe_get lat q in
      for b = 0 to m - 1 do
        if b <> a then begin
          let p = Array.unsafe_get ps b in
          Vec.unsafe_set dst p
            (Vec.unsafe_get dst p
            +. fa
               *. (Array.unsafe_get z.sigma p
                  *. Migration.prob migration ~ell_p:lq
                       ~ell_q:(Array.unsafe_get lat p)))
        end
      done
    end
  done

(* O(m), one sweep down the sorted order.  At position k the suffix
   sums over the positions above are complete: [fs] holds Σ f, and
   [qa]/[qb] hold Σ w·rel and Σ w from a position to the end of the
   cluster of the position below it (0 at a cluster start), which is
   exactly what a window inside k's cluster reads.  Under [Relative]
   [g] holds Σ f/ℓ, and the clusters above k contribute
   Σ f − ℓ_k Σ f/ℓ, which cannot cancel: they sit above 2ℓ_k. *)
let eval_factored t z f dst ci =
  let m = Array.length t.paths_of.(ci) in
  let o = z.off.(ci) in
  let fs = z.fs and qa = z.qa and qb = z.qb and g = z.g in
  Array.unsafe_set fs m 0.;
  Array.unsafe_set qa m 0.;
  Array.unsafe_set qb m 0.;
  Array.unsafe_set g m 0.;
  match z.shape with
  | Step ->
      for k = m - 1 downto 0 do
        let i = o + k in
        let p = Array.unsafe_get z.path i in
        let gk = Vec.unsafe_get f p in
        Vec.unsafe_set dst p
          ((Array.unsafe_get z.sig_s i
           *. Array.unsafe_get fs (Array.unsafe_get z.gt i))
          -. (gk *. Array.unsafe_get t.row_sum p));
        Array.unsafe_set fs k (Array.unsafe_get fs (k + 1) +. gk)
      done
  | Affine { c; _ } ->
      for k = m - 1 downto 0 do
        let i = o + k in
        let gt = Array.unsafe_get z.gt i and sat = Array.unsafe_get z.sat i in
        let r = Array.unsafe_get z.rel i in
        let inflow =
          if sat > gt then
            Array.unsafe_get fs sat
            +. c
               *. (Array.unsafe_get qa gt
                  -. Array.unsafe_get qa sat
                  -. (r *. (Array.unsafe_get qb gt -. Array.unsafe_get qb sat)))
          else Array.unsafe_get fs sat
        in
        let p = Array.unsafe_get z.path i in
        let gk = Vec.unsafe_get f p in
        Vec.unsafe_set dst p
          ((Array.unsafe_get z.sig_s i *. inflow)
          -. (gk *. Array.unsafe_get t.row_sum p));
        Array.unsafe_set fs k (Array.unsafe_get fs (k + 1) +. gk);
        if Array.unsafe_get z.first i then begin
          Array.unsafe_set qa k 0.;
          Array.unsafe_set qb k 0.
        end
        else begin
          Array.unsafe_set qa k (Array.unsafe_get qa (k + 1) +. (gk *. r));
          Array.unsafe_set qb k (Array.unsafe_get qb (k + 1) +. gk)
        end
      done
  | Relative scale ->
      for k = m - 1 downto 0 do
        let i = o + k in
        let gt = Array.unsafe_get z.gt i and cend = Array.unsafe_get z.sat i in
        let r = Array.unsafe_get z.rel i in
        let inflow =
          scale
          *. (Array.unsafe_get qa gt
              -. (r *. Array.unsafe_get qb gt)
             +. (Array.unsafe_get fs cend
                -. (Array.unsafe_get z.lat_s i *. Array.unsafe_get g cend)))
        in
        let p = Array.unsafe_get z.path i in
        let gk = Vec.unsafe_get f p in
        Vec.unsafe_set dst p
          ((Array.unsafe_get z.sig_s i *. inflow)
          -. (gk *. Array.unsafe_get t.row_sum p));
        let w = gk *. Array.unsafe_get z.wsc i in
        Array.unsafe_set fs k (Array.unsafe_get fs (k + 1) +. gk);
        Array.unsafe_set g k (Array.unsafe_get g (k + 1) +. w);
        if Array.unsafe_get z.first i then begin
          Array.unsafe_set qa k 0.;
          Array.unsafe_set qb k 0.
        end
        else begin
          Array.unsafe_set qa k (Array.unsafe_get qa (k + 1) +. (w *. r));
          Array.unsafe_set qb k (Array.unsafe_get qb (k + 1) +. w)
        end
      done

let flow_derivative_into t f ~dst =
  if Vec.dim f <> t.n || Vec.dim dst <> t.n then
    invalid_arg "Rate_kernel.flow_derivative_into: dimension mismatch";
  if f == dst then
    invalid_arg "Rate_kernel.flow_derivative_into: dst aliases the flow";
  match t.form with
  | Dense d ->
      for ci = 0 to t.commodities - 1 do
        eval_dense t d f dst ci
      done
  | Factored z ->
      for ci = 0 to t.commodities - 1 do
        if z.pairwise.(ci) then eval_pairwise t z f dst ci
        else eval_factored t z f dst ci
      done

let flow_derivative t f =
  let dst = Vec.create t.n 0. in
  flow_derivative_into t f ~dst;
  dst
