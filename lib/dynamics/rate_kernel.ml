open Staleroute_wardrop
module Vec = Staleroute_util.Vec

type t = {
  inst : Instance.t;
  policy : Policy.t;
  n : int;
  commodities : int;
  paths_of : int array array;  (* shared with the instance - not mutated *)
  mat_off : int array;  (* commodity ci's m*m block starts at mat_off.(ci) *)
  mat : float array;  (* row-major dense blocks, R_PP = 0 *)
  row_sum : float array;  (* total outflow rate per unit mass, global index *)
  mutable board : Bulletin_board.t;  (* the posting the entries encode *)
  (* Compiler scratch, allocated once at build time so [update] stays
     allocation-free.  All three are sized to the largest commodity and
     only meaningful inside one commodity's compile. *)
  sigma : float array;
  lat_dirty : bool array;  (* local index: posted latency bits changed *)
  col_dirty : bool array;  (* local index: sigma_b or ell_Q changed *)
}

(* Every σ·µ entry and every row sum a kernel holds is written by one
   function, [compile_block], for [build] and [update] alike.  That is
   what keeps an update chain bitwise identical to a fresh build
   (checkpoint/resume reconstructs kernels with [build] while the
   uninterrupted run reaches the same posting through updates): the
   two can only differ in which entries they recompute, and an entry
   is reused only when its inputs are bit-unchanged. *)

(* µ(ℓ_P, ℓ_Q): [Migration.prob] arm for arm, with [Numerics.clamp]
   spelled out as [Float.min hi (Float.max lo x)].  Inlined so the
   entry loop neither boxes the floats nor makes a cross-module call
   per pair; [Custom] goes through its closure.  A test pins every arm
   to [Migration.prob] bit for bit. *)
let[@inline] mu migration lp lq =
  match migration with
  | Migration.Better_response -> if lp > lq then 1. else 0.
  | Migration.Linear { ell_max } ->
      if lp > lq then Float.min 1. (Float.max 0. ((lp -. lq) /. ell_max))
      else 0.
  | Migration.Scaled_linear { alpha } ->
      if lp > lq then Float.min 1. (Float.max 0. (alpha *. (lp -. lq)))
      else 0.
  | Migration.Relative { scale } ->
      if lp > lq && lp > 0. then
        Float.min 1. (Float.max 0. (scale *. (lp -. lq) /. lp))
      else 0.
  | Migration.Custom { prob; _ } -> prob ~ell_p:lp ~ell_q:lq

(* Compile commodity [ci]'s block against [board].  With [~full] every
   entry is computed; otherwise rows flagged in [t.lat_dirty] (local
   index) are computed in full and every other row only at the columns
   flagged in [t.col_dirty].  Row sums are re-accumulated in b-order
   over the stored entries either way, so they come out bit-identical
   to a full compile.  Only the commodity's own [mat] slice and
   [row_sum] entries are written, so distinct commodities compile
   concurrently; [sigma] is per-call scratch.  Origin-dependent
   sampling recomputes σ per row. *)
let compile_block t ~full ~sigma ~board ci =
  let lat = board.Bulletin_board.path_latencies in
  let flow = board.Bulletin_board.flow in
  let sampling = t.policy.Policy.sampling in
  let migration = t.policy.Policy.migration in
  let origin_indep = Sampling.origin_independent sampling in
  let ps = t.paths_of.(ci) in
  let m = Array.length ps in
  let off = t.mat_off.(ci) in
  let mat = t.mat in
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
    let whole = full || Array.unsafe_get t.lat_dirty a in
    let sum = ref 0. in
    for b = 0 to m - 1 do
      if b <> a then begin
        if whole || Array.unsafe_get t.col_dirty b then
          Array.unsafe_set mat (base + b)
            (Array.unsafe_get sigma b
            *. mu migration lp (Array.unsafe_get lat (Array.unsafe_get ps b)));
        sum := !sum +. Array.unsafe_get mat (base + b)
      end
    done;
    t.row_sum.(p) <- !sum
  done

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

(* Sharding a build across domains only pays once a kernel is large:
   below roughly this many matrix entries the per-commodity task
   handoff costs more than the whole sequential compile (the bench
   instance, ~4.6k entries, built 6x slower sharded than whole).  Pass
   [~shard_min_entries:0] to force sharding regardless — the
   bit-identity tests do. *)
let default_shard_min_entries = 65536

let build ?pool ?(shard_min_entries = default_shard_min_entries) inst policy
    ~board =
  let n = Instance.path_count inst in
  check_board ~who:"Rate_kernel.build" n board;
  let nc = Instance.commodity_count inst in
  let mat_off = Array.make (nc + 1) 0 in
  for ci = 0 to nc - 1 do
    let m = Array.length (Instance.paths_of_commodity inst ci) in
    mat_off.(ci + 1) <- mat_off.(ci) + (m * m)
  done;
  let scratch_dim = max 1 (Instance.max_paths_in_commodity inst) in
  let t =
    {
      inst;
      policy;
      n;
      commodities = nc;
      paths_of = Array.init nc (Instance.paths_of_commodity inst);
      mat_off;
      mat = Array.make (max 1 mat_off.(nc)) 0.;
      row_sum = Array.make n 0.;
      board;
      sigma = Array.make scratch_dim 0.;
      lat_dirty = Array.make scratch_dim false;
      col_dirty = Array.make scratch_dim false;
    }
  in
  (match pool with
  | Some _ when mat_off.(nc) >= shard_min_entries ->
      Staleroute_util.Pool.parallel_iter ~pool
        (fun ci ->
          compile_block t ~full:true ~sigma:(Array.make scratch_dim 0.) ~board
            ci)
        (Array.init nc Fun.id)
  | _ ->
      for ci = 0 to nc - 1 do
        compile_block t ~full:true ~sigma:t.sigma ~board ci
      done);
  t

let[@inline] bits_differ a b = Int64.bits_of_float a <> Int64.bits_of_float b

(* Recompile one commodity from freshly set dirty flags ([any_lat]/
   [any_col] their disjunctions).  A block with no dirty flag is
   skipped outright: its stored entries were computed by
   [compile_block] on the very same bits. *)
let refresh t ~board ~any_lat ~any_col ci =
  match t.policy.Policy.sampling with
  | Sampling.Logit _ ->
      (* Softmax normalisation couples every sigma entry to every
         latency in the commodity; the whole block refreshes or none of
         it does (sigma and mu both read latencies only). *)
      if any_lat then compile_block t ~full:true ~sigma:t.sigma ~board ci
  | _ ->
      if any_lat || any_col then
        compile_block t ~full:false ~sigma:t.sigma ~board ci

let update ?changed t ~board =
  check_board ~who:"Rate_kernel.update" t.n board;
  let old = t.board in
  let lat = board.Bulletin_board.path_latencies in
  let olat = old.Bulletin_board.path_latencies in
  let bflow = board.Bulletin_board.flow in
  let obflow = old.Bulletin_board.flow in
  let sampling = t.policy.Policy.sampling in
  (match (sampling, t.policy.Policy.migration) with
  | Sampling.Custom _, _ | _, Migration.Custom _ ->
      (* The closures may not be pure functions of the posted data, and
         a fresh build would re-invoke them — so must we (the changed
         set is ignored).  Still an in-place recompile: no arrays are
         reallocated. *)
      for ci = 0 to t.commodities - 1 do
        compile_block t ~full:true ~sigma:t.sigma ~board ci
      done
  | _ -> (
      match changed with
      | None ->
          for ci = 0 to t.commodities - 1 do
            let ps = t.paths_of.(ci) in
            let m = Array.length ps in
            let lat_dirty = t.lat_dirty and col_dirty = t.col_dirty in
            let any_lat = ref false in
            for j = 0 to m - 1 do
              let q = Array.unsafe_get ps j in
              let ch =
                bits_differ (Array.unsafe_get lat q) (Array.unsafe_get olat q)
              in
              Array.unsafe_set lat_dirty j ch;
              if ch then any_lat := true
            done;
            let any_col = ref false in
            (match sampling with
            | Sampling.Logit _ -> () (* whole-block; flags unused *)
            | Sampling.Uniform ->
                for j = 0 to m - 1 do
                  let d = Array.unsafe_get lat_dirty j in
                  Array.unsafe_set col_dirty j d;
                  if d then any_col := true
                done
            | Sampling.Proportional | Sampling.Mixed _ ->
                (* sigma_b depends only on the posted flow of path b,
                   so entry (a,b) is stale exactly when ell_a, ell_b or
                   sigma_b moved. *)
                for j = 0 to m - 1 do
                  let q = Array.unsafe_get ps j in
                  let d =
                    Array.unsafe_get lat_dirty j
                    || bits_differ (Vec.unsafe_get bflow q)
                         (Vec.unsafe_get obflow q)
                  in
                  Array.unsafe_set col_dirty j d;
                  if d then any_col := true
                done
            | Sampling.Custom _ -> assert false (* recompiled above *));
            refresh t ~board ~any_lat:!any_lat ~any_col:!any_col ci
          done
      | Some (chg, count) ->
          (* The caller (a delta repost) guarantees every path outside
             [chg.(0 .. count-1)] has bit-unchanged posted latency AND
             flow, so only commodities owning a listed path need
             looking at.  The list is ascending, but after
             [Instance.extend] a commodity's paths may occupy several
             ascending runs of the global index — each run is processed
             independently, which is sound: entries always recompute
             from the {e new} board, so a second pass over the same
             commodity is bitwise idempotent, and any row sum
             transiently accumulated against a not-yet-refreshed column
             is re-accumulated by that later pass (a dirty column
             implies [any_col], which re-sums every row of the
             block). *)
          let i = ref 0 in
          while !i < count do
            let ci = Instance.commodity_of_path t.inst chg.(!i) in
            let stop = ref (!i + 1) in
            while
              !stop < count
              && Instance.commodity_of_path t.inst chg.(!stop) = ci
            do
              incr stop
            done;
            let m = Array.length t.paths_of.(ci) in
            Array.fill t.lat_dirty 0 m false;
            Array.fill t.col_dirty 0 m false;
            let any_lat = ref false and any_col = ref false in
            for x = !i to !stop - 1 do
              let q = chg.(x) in
              let jl = Instance.local_index_of_path t.inst q in
              let ch =
                bits_differ (Array.unsafe_get lat q) (Array.unsafe_get olat q)
              in
              if ch then begin
                t.lat_dirty.(jl) <- true;
                any_lat := true
              end;
              let cd =
                match sampling with
                | Sampling.Uniform | Sampling.Logit _ -> ch
                | _ ->
                    ch
                    || bits_differ (Vec.unsafe_get bflow q)
                         (Vec.unsafe_get obflow q)
              in
              if cd then begin
                t.col_dirty.(jl) <- true;
                any_col := true
              end
            done;
            refresh t ~board ~any_lat:!any_lat ~any_col:!any_col ci;
            i := !stop
          done));
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
  else begin
    let m = Array.length t.paths_of.(ci) in
    let a = Instance.local_index_of_path t.inst from_ in
    let b = Instance.local_index_of_path t.inst q in
    t.mat.(t.mat_off.(ci) + (a * m) + b)
  end

let flow_derivative_into t f ~dst =
  if Vec.dim f <> t.n || Vec.dim dst <> t.n then
    invalid_arg "Rate_kernel.flow_derivative_into: dimension mismatch";
  if f == dst then
    invalid_arg "Rate_kernel.flow_derivative_into: dst aliases the flow";
  for ci = 0 to t.commodities - 1 do
    let ps = t.paths_of.(ci) in
    let m = Array.length ps in
    let off = t.mat_off.(ci) in
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
            (Vec.unsafe_get dst p +. (fa *. Array.unsafe_get t.mat (base + b)))
        done
      end
    done
  done

let flow_derivative t f =
  let dst = Vec.create t.n 0. in
  flow_derivative_into t f ~dst;
  dst
