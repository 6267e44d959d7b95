open Staleroute_graph
module Latency = Staleroute_latency.Latency

type t = {
  graph : Digraph.t;
  latencies : Latency.t array;
  commodities : Commodity.t array;
  paths : Path.t array;
  commodity_of_path : int array;
  paths_of_commodity : int array array;
  local_index_of_path : int array;
  csr_offsets : int array;
  csr_edges : int array;
  edge_csr_offsets : int array;
  edge_csr_paths : int array;
  used_edges : int array;
  max_path_length : int;
  beta : float;
  ell_max : float;
}

exception
  Path_set_too_large of { commodity : int; cap : int }

let () =
  Printexc.register_printer (function
    | Path_set_too_large { commodity; cap } ->
        Some
          (Printf.sprintf
             "Staleroute_wardrop.Instance.Path_set_too_large: commodity %d \
              has more than %d simple paths (raise the cap, or use the \
              column-generation core Path_pool instead of enumerating)"
             commodity cap)
    | _ -> None)

(* Transposed incidence (edge -> path CSR), derived from the path -> edge
   CSR by counting sort.  Each edge row lists the global indices of the
   paths traversing it in {e ascending} order, the order
   [Flow.edge_flows_into] sums it in.  The counting sort below visits
   paths in ascending order, so rows come out sorted by construction.  The
   used-edge index (ascending ids of the non-empty rows) is counted in
   the counting pass and filled in the prefix-sum pass: no extra pass
   over the edges. *)
let transpose_csr ~edge_count ~path_count ~csr_offsets ~csr_edges =
  let offsets = Array.make (edge_count + 1) 0 in
  let nnz = csr_offsets.(path_count) in
  let n_used = ref 0 in
  for k = 0 to nnz - 1 do
    let e = csr_edges.(k) in
    if offsets.(e + 1) = 0 then incr n_used;
    offsets.(e + 1) <- offsets.(e + 1) + 1
  done;
  let used = Array.make !n_used 0 in
  let u = ref 0 in
  for e = 0 to edge_count - 1 do
    if offsets.(e + 1) > 0 then begin
      used.(!u) <- e;
      incr u
    end;
    offsets.(e + 1) <- offsets.(e + 1) + offsets.(e)
  done;
  let paths = Array.make (max 1 nnz) 0 in
  let cursor = Array.copy offsets in
  for p = 0 to path_count - 1 do
    for k = csr_offsets.(p) to csr_offsets.(p + 1) - 1 do
      let e = csr_edges.(k) in
      paths.(cursor.(e)) <- p;
      cursor.(e) <- cursor.(e) + 1
    done
  done;
  (offsets, paths, used)

(* [transpose_csr] of a grown CSR whose paths [n ..] are new, from [t]'s
   transpose by a linear merge.  The new incidences, sorted by (edge,
   path), are spliced in after the old entries of their rows — new
   paths carry the largest indices, so every row stays ascending and
   the arrays equal a from-scratch build.  Old rows move by block
   copies; the offsets take one integer pass over the edges. *)
let merge_transpose t ~n ~csr_offsets ~csr_edges =
  let n' = Array.length csr_offsets - 1 in
  let span = n' - n in
  let k0 = csr_offsets.(n) in
  let added = csr_offsets.(n') - k0 in
  let keys = Array.make added 0 in
  for p = n to n' - 1 do
    for k = csr_offsets.(p) to csr_offsets.(p + 1) - 1 do
      keys.(k - k0) <- (csr_edges.(k) * span) + (p - n)
    done
  done;
  Array.sort Int.compare keys;
  let old_off = t.edge_csr_offsets and old_paths = t.edge_csr_paths in
  let edge_count = Array.length old_off - 1 in
  let old_nnz = old_off.(edge_count) in
  let edge_of i = if i < added then keys.(i) / span else max_int in
  let offsets = Array.make (edge_count + 1) 0 in
  let seen = ref 0 and next = ref (edge_of 0) in
  for e = 0 to edge_count - 1 do
    while !next = e do
      incr seen;
      next := edge_of !seen
    done;
    offsets.(e + 1) <- old_off.(e + 1) + !seen
  done;
  let paths = Array.make (max 1 (old_nnz + added)) 0 in
  (* The edges whose row was empty are the used-edge index's new
     entries, met in ascending order. *)
  let fresh = Array.make added 0 and n_fresh = ref 0 in
  let src = ref 0 and dst = ref 0 and i = ref 0 in
  while !i < added do
    let e = edge_of !i in
    let upto = old_off.(e + 1) in
    if old_off.(e) = upto then begin
      fresh.(!n_fresh) <- e;
      incr n_fresh
    end;
    Array.blit old_paths !src paths !dst (upto - !src);
    dst := !dst + (upto - !src);
    src := upto;
    while edge_of !i = e do
      paths.(!dst) <- n + (keys.(!i) mod span);
      incr dst;
      incr i
    done
  done;
  Array.blit old_paths !src paths !dst (old_nnz - !src);
  let used =
    if !n_fresh = 0 then t.used_edges
    else begin
      let old_used = t.used_edges in
      let n_old = Array.length old_used in
      let used = Array.make (n_old + !n_fresh) 0 in
      let j = ref 0 and k = ref 0 in
      for u = 0 to Array.length used - 1 do
        if !k < !n_fresh && (!j = n_old || fresh.(!k) < old_used.(!j)) then begin
          used.(u) <- fresh.(!k);
          incr k
        end
        else begin
          used.(u) <- old_used.(!j);
          incr j
        end
      done;
      used
    end
  in
  (offsets, paths, used)

(* Shared table builder: everything an instance derives from an explicit
   per-commodity path-set assignment.  [create] feeds it the full
   enumeration; [of_paths]/[extend] feed it explicit (possibly lazily
   grown) sets.  The global index is commodity-major over
   [per_commodity] — append-only growth therefore reaches it through
   [extend], which keeps old global indices stable instead of
   re-deriving them here. *)
let build_tables ~graph ~latencies ~commodities ~per_commodity =
  let path_count =
    Array.fold_left (fun n ps -> n + Array.length ps) 0 per_commodity
  in
  let paths = Array.make path_count (per_commodity.(0)).(0) in
  let commodity_of_path = Array.make path_count 0 in
  let paths_of_commodity =
    Array.map (fun ps -> Array.make (Array.length ps) 0) per_commodity
  in
  let next = ref 0 in
  Array.iteri
    (fun ci ps ->
      Array.iteri
        (fun j p ->
          paths.(!next) <- p;
          commodity_of_path.(!next) <- ci;
          paths_of_commodity.(ci).(j) <- !next;
          incr next)
        ps)
    per_commodity;
  let local_index_of_path = Array.make path_count 0 in
  Array.iter
    (fun ps -> Array.iteri (fun j p -> local_index_of_path.(p) <- j) ps)
    paths_of_commodity;
  (* CSR form of the path -> edge incidence: edges of path [p] are
     [csr_edges.(csr_offsets.(p)) .. csr_edges.(csr_offsets.(p+1) - 1)].
     One flat array keeps edge-flow and path-latency evaluation on a
     contiguous scan instead of chasing per-path arrays. *)
  let csr_offsets = Array.make (path_count + 1) 0 in
  Array.iteri
    (fun p path -> csr_offsets.(p + 1) <- csr_offsets.(p) + Path.length path)
    paths;
  let csr_edges = Array.make (max 1 csr_offsets.(path_count)) 0 in
  Array.iteri
    (fun p path ->
      Array.iteri
        (fun k e -> csr_edges.(csr_offsets.(p) + k) <- e)
        (Path.edge_id_array path))
    paths;
  let edge_csr_offsets, edge_csr_paths, used_edges =
    transpose_csr ~edge_count:(Digraph.edge_count graph) ~path_count
      ~csr_offsets ~csr_edges
  in
  let max_path_length =
    Array.fold_left (fun m p -> max m (Path.length p)) 0 paths
  in
  let beta =
    Array.fold_left (fun m l -> Float.max m (Latency.slope_bound l)) 0.
      latencies
  in
  let ell_max =
    Array.fold_left
      (fun m path ->
        let total =
          Array.fold_left
            (fun acc e -> acc +. Latency.max_value latencies.(e))
            0. (Path.edge_id_array path)
        in
        Float.max m total)
      0. paths
  in
  (* The stability analysis (and every step-size heuristic built on it)
     divides by these; an unbounded latency must be rejected here, not
     surface later as a NaN period. *)
  if not (Float.is_finite beta) then
    invalid_arg "Instance: latency slope bound is not finite";
  if not (Float.is_finite ell_max) then
    invalid_arg "Instance: maximum path latency is not finite";
  {
    graph;
    latencies;
    commodities;
    paths;
    commodity_of_path;
    paths_of_commodity;
    local_index_of_path;
    csr_offsets;
    csr_edges;
    edge_csr_offsets;
    edge_csr_paths;
    used_edges;
    max_path_length;
    beta;
    ell_max;
  }

let check_frame ~graph ~latencies ~commodities =
  if Array.length latencies <> Digraph.edge_count graph then
    invalid_arg "Instance: one latency function per edge required";
  if Array.length commodities = 0 then
    invalid_arg "Instance: need at least one commodity";
  let total_demand =
    Staleroute_util.Numerics.sum_by (fun c -> c.Commodity.demand) commodities
  in
  if not (Staleroute_util.Numerics.approx_equal ~atol:1e-9 total_demand 1.)
  then invalid_arg "Instance: total demand must be normalised to 1"

let check_commodity_path ~graph ~commodity:c ci p =
  if Path.src p <> c.Commodity.src || Path.dst p <> c.Commodity.dst then
    invalid_arg
      (Printf.sprintf
         "Instance: path %d->%d does not connect commodity %d (%d->%d)"
         (Path.src p) (Path.dst p) ci c.Commodity.src c.Commodity.dst);
  Array.iter
    (fun e ->
      if e < 0 || e >= Digraph.edge_count graph then
        invalid_arg "Instance: path uses an edge id outside the graph")
    (Path.edge_id_array p)

let create ?(max_paths_per_commodity = 10_000) ~graph ~latencies ~commodities
    () =
  let commodities = Array.of_list commodities in
  check_frame ~graph ~latencies ~commodities;
  let per_commodity =
    Array.mapi
      (fun ci c ->
        let paths =
          (* A path-count explosion surfaces as a typed error naming the
             commodity, not as an escaped enumeration internal (and
             never as silent truncation or an OOM). *)
          try
            Path_enum.all_simple_paths ~max_paths:max_paths_per_commodity
              graph ~src:c.Commodity.src ~dst:c.Commodity.dst
          with Path_enum.Too_many_paths cap ->
            raise (Path_set_too_large { commodity = ci; cap })
        in
        if paths = [] then
          invalid_arg "Instance.create: commodity has no path";
        Array.of_list paths)
      commodities
  in
  build_tables ~graph ~latencies ~commodities ~per_commodity

let of_paths ~graph ~latencies ~commodities ~paths () =
  let commodities = Array.of_list commodities in
  check_frame ~graph ~latencies ~commodities;
  if Array.length paths <> Array.length commodities then
    invalid_arg "Instance.of_paths: one path list per commodity required";
  let per_commodity =
    Array.mapi
      (fun ci ps ->
        if ps = [] then
          invalid_arg "Instance.of_paths: commodity has no path";
        let c = commodities.(ci) in
        List.iter (check_commodity_path ~graph ~commodity:c ci) ps;
        let ps = Array.of_list ps in
        Array.iteri
          (fun j p ->
            for j' = 0 to j - 1 do
              if Path.equal p ps.(j') then
                invalid_arg "Instance.of_paths: duplicate path in commodity"
            done)
          ps;
        ps)
      paths
  in
  build_tables ~graph ~latencies ~commodities ~per_commodity

let extend t ~paths =
  if paths = [] then t
  else begin
    let n = Array.length t.paths in
    let nc = Array.length t.commodities in
    let added = Array.of_list paths in
    let n_add = Array.length added in
    (* Validate before touching anything: commodity range, connectivity,
       and no duplicate of an existing or earlier-appended path. *)
    Array.iteri
      (fun k (ci, p) ->
        if ci < 0 || ci >= nc then
          invalid_arg "Instance.extend: commodity index out of range";
        check_commodity_path ~graph:t.graph ~commodity:t.commodities.(ci) ci p;
        Array.iter
          (fun q -> if Path.equal p t.paths.(q) then
              invalid_arg "Instance.extend: path already active")
          t.paths_of_commodity.(ci);
        for k' = 0 to k - 1 do
          let ci', p' = added.(k') in
          if ci' = ci && Path.equal p p' then
            invalid_arg "Instance.extend: duplicate path in extension"
        done)
      added;
    (* New columns append at the END of the global index, in list order:
       every old global path index is stable, so flows and boards embed
       by zero-extension and CSR grows by appending rows. *)
    let n' = n + n_add in
    let paths = Array.make n' t.paths.(0) in
    Array.blit t.paths 0 paths 0 n;
    let commodity_of_path = Array.make n' 0 in
    Array.blit t.commodity_of_path 0 commodity_of_path 0 n;
    let local_index_of_path = Array.make n' 0 in
    Array.blit t.local_index_of_path 0 local_index_of_path 0 n;
    let added_per_ci = Array.make nc [] in
    Array.iteri
      (fun k (ci, p) ->
        let g = n + k in
        paths.(g) <- p;
        commodity_of_path.(g) <- ci;
        added_per_ci.(ci) <- g :: added_per_ci.(ci))
      added;
    (* Ungrown commodities share their paths_of array with [t]: growth
       copies only the commodities it touches. *)
    let paths_of_commodity =
      Array.mapi
        (fun ci ps ->
          match added_per_ci.(ci) with
          | [] -> ps
          | rev_new ->
              Array.append ps (Array.of_list (List.rev rev_new)))
        t.paths_of_commodity
    in
    Array.iteri
      (fun ci ps ->
        if added_per_ci.(ci) <> [] then
          Array.iteri (fun j p -> local_index_of_path.(p) <- j) ps)
      paths_of_commodity;
    let csr_offsets = Array.make (n' + 1) 0 in
    Array.blit t.csr_offsets 0 csr_offsets 0 (n + 1);
    for p = n to n' - 1 do
      csr_offsets.(p + 1) <- csr_offsets.(p) + Path.length paths.(p)
    done;
    let csr_edges = Array.make (max 1 csr_offsets.(n')) 0 in
    Array.blit t.csr_edges 0 csr_edges 0 t.csr_offsets.(n);
    for p = n to n' - 1 do
      Array.iteri
        (fun k e -> csr_edges.(csr_offsets.(p) + k) <- e)
        (Path.edge_id_array paths.(p))
    done;
    let edge_csr_offsets, edge_csr_paths, used_edges =
      merge_transpose t ~n ~csr_offsets ~csr_edges
    in
    let max_path_length =
      Array.fold_left
        (fun m (_, p) -> max m (Path.length p))
        t.max_path_length added
    in
    let ell_max =
      Array.fold_left
        (fun m (_, p) ->
          let total =
            Array.fold_left
              (fun acc e -> acc +. Latency.max_value t.latencies.(e))
              0. (Path.edge_id_array p)
          in
          Float.max m total)
        t.ell_max added
    in
    if not (Float.is_finite ell_max) then
      invalid_arg "Instance.extend: maximum path latency is not finite";
    {
      t with
      paths;
      commodity_of_path;
      paths_of_commodity;
      local_index_of_path;
      csr_offsets;
      csr_edges;
      edge_csr_offsets;
      edge_csr_paths;
      used_edges;
      max_path_length;
      ell_max;
    }
  end

let graph t = t.graph

let latencies t = t.latencies

let latency t e =
  if e < 0 || e >= Array.length t.latencies then
    invalid_arg "Instance.latency: edge out of range";
  t.latencies.(e)

let commodity_count t = Array.length t.commodities

let commodity t i =
  if i < 0 || i >= Array.length t.commodities then
    invalid_arg "Instance.commodity: index out of range";
  t.commodities.(i)

let path_count t = Array.length t.paths

let path t i =
  if i < 0 || i >= Array.length t.paths then
    invalid_arg "Instance.path: index out of range";
  t.paths.(i)

let path_edges t i =
  if i < 0 || i >= Array.length t.paths then
    invalid_arg "Instance.path_edges: index out of range";
  Path.edge_id_array t.paths.(i)

let commodity_of_path t i =
  if i < 0 || i >= Array.length t.commodity_of_path then
    invalid_arg "Instance.commodity_of_path: index out of range";
  t.commodity_of_path.(i)

let paths_of_commodity t i =
  if i < 0 || i >= Array.length t.paths_of_commodity then
    invalid_arg "Instance.paths_of_commodity: index out of range";
  t.paths_of_commodity.(i)

let local_index_of_path t p =
  if p < 0 || p >= Array.length t.local_index_of_path then
    invalid_arg "Instance.local_index_of_path: index out of range";
  t.local_index_of_path.(p)

let csr_offsets t = t.csr_offsets
let csr_edges t = t.csr_edges
let edge_csr_offsets t = t.edge_csr_offsets
let edge_csr_paths t = t.edge_csr_paths
let used_edges t = t.used_edges

let demand t i = (commodity t i).Commodity.demand
let max_path_length t = t.max_path_length
let beta t = t.beta
let ell_max t = t.ell_max

let max_paths_in_commodity t =
  Array.fold_left (fun m ps -> max m (Array.length ps)) 0 t.paths_of_commodity

let pp ppf t =
  Format.fprintf ppf
    "instance(%d nodes, %d edges, %d commodities, %d paths, D=%d, beta=%g, \
     lmax=%g)"
    (Digraph.node_count t.graph)
    (Digraph.edge_count t.graph)
    (Array.length t.commodities)
    (Array.length t.paths) t.max_path_length t.beta t.ell_max
