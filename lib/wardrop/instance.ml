open Staleroute_graph
module Latency = Staleroute_latency.Latency
module Vec = Staleroute_util.Vec

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

(* The edge -> path transpose.  Row [e] lists the paths traversing edge
   [e] in ascending index, the order [Flow.edge_flows_into] sums it in.
   Only [row_sums_into] and [collect_edge_paths] below read it.  An
   instance with [n] paths reads it in two parts:
   - in [root], built once per store (see [store] below): the row's
     paths at build time, cells [starts.(e) .. starts.(e+1) - 1];
   - when [links.(e) = -h - 1] with [h < Array.length heads]: the cells
     of [more] from [heads.(h)] up to the first one [>= n].
   [links] is empty until the store's first growth, which fills it with
   [free]; [links.(e)] is [free] until the row first grows, then names
   its continuation [h] for good.  A continuation of capacity [c] at [pos]
   is a block: [more.(pos - 2) = c], [more.(pos - 1)] its path count,
   [c] path cells, then a [free] cell that ends it.

   Growth writes new paths into their block's free cells, which no
   older instance reads (it stops at the first path it does not have),
   or, when the block is full, copies it into a new block of twice the
   size at [top], the end of [more]'s used part.  [heads] is each
   instance's own (every growth copies it), so a moved block never
   moves under an older instance.  When [more] is full, the live blocks
   are copied in ascending edge order into a new array of twice their
   size; older instances keep the old one. *)
type edge_rows = {
  starts : int array;
  root : int array;
  links : int array;
  heads : int array;
  more : int array;
}

let free = max_int

(* A growth chain's shared state.  [tip] is the path count of the
   chain's newest instance: an extension of that instance claims it by
   compare-and-set and writes in place, only into cells that no older
   instance reads.  [top] is the first unused cell of the newest
   instance's [more]; only the claimant touches it. *)
type store = { tip : int Atomic.t; mutable top : int }

type t = {
  graph : Digraph.t;
  latencies : Latency.t array;
  commodities : Commodity.t array;
  paths : Path.t array;
  commodity_of_path : int array;
  paths_of_commodity : int array array;
  local_index_of_path : int array;
  (* Path -> edge CSR.  Both arrays may run past this instance's
     [path_count + 1] offsets and their incidences: spare capacity,
     which the chain's newer instances fill in. *)
  csr_offsets : int array;
  csr_edges : int array;
  rows : edge_rows;
  store : store;
  used_edges : int array;
  max_path_length : int;
  beta : float;
  ell_max : float;
}

(* The transpose of a path set built from scratch, by counting sort: the
   constructor behind [of_paths] and behind a store fork.  The used-edge
   index (ascending ids of the non-empty rows) is counted in the
   counting pass and filled in the prefix-sum pass.  [starts.(e)] first
   holds the end of row [e], then serves as its cursor: each row is
   filled backwards, over the paths in descending order, so the rows
   come out ascending and each cursor stops at its row's start.  No
   row has grown yet, so [links] stays empty until the first growth. *)
let build_rows ~edge_count ~path_count ~csr_offsets ~csr_edges =
  let starts = Array.make (edge_count + 1) 0 in
  let nnz = csr_offsets.(path_count) in
  let n_used = ref 0 in
  for k = 0 to nnz - 1 do
    let e = csr_edges.(k) in
    if starts.(e) = 0 then incr n_used;
    starts.(e) <- starts.(e) + 1
  done;
  let used = Array.make !n_used 0 in
  let u = ref 0 and ends = ref 0 in
  for e = 0 to edge_count - 1 do
    if starts.(e) > 0 then begin
      used.(!u) <- e;
      incr u
    end;
    ends := !ends + starts.(e);
    starts.(e) <- !ends
  done;
  starts.(edge_count) <- nnz;
  let root = Array.make (max 1 nnz) 0 in
  for p = path_count - 1 downto 0 do
    for k = csr_offsets.(p) to csr_offsets.(p + 1) - 1 do
      let e = csr_edges.(k) in
      starts.(e) <- starts.(e) - 1;
      root.(starts.(e)) <- p
    done
  done;
  ({ starts; root; links = [||]; heads = [||]; more = [||] }, used)

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
  let rows, used_edges =
    build_rows ~edge_count:(Digraph.edge_count graph) ~path_count
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
    rows;
    store = { tip = Atomic.make path_count; top = 0 };
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

(* [a] with room for [need] cells, its first [keep] kept: [a] itself when
   [own] and it is long enough, else a copy of at least twice the
   length. *)
let room ~own a ~keep ~need =
  if own && Array.length a >= need then a
  else begin
    let b = Array.make (max need (2 * keep)) 0 in
    Array.blit a 0 b 0 keep;
    b
  end

(* Append the transpose entries of the new paths [n .. n'-1] (CSR rows
   already written) to [rows], in place: the caller holds the store's
   claim.  The new incidences, sorted by (edge, path), go to the end of
   their rows — new paths carry the largest indices, so every row stays
   ascending and reads exactly as a from-scratch build.  [used] (the
   used edges before growth) orders a compaction.  Returns the grown
   rows and the newly used edges, ascending, with their count. *)
let append_rows rows store ~used ~n ~n' ~csr_offsets ~csr_edges =
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
  let group_end i =
    let e = keys.(i) / span in
    let j = ref (i + 1) in
    while !j < added && keys.(!j) / span = e do
      incr j
    done;
    !j
  in
  let { starts; heads; more; _ } = rows in
  let links =
    if Array.length rows.links > 0 then rows.links
    else Array.make (Array.length starts - 1) free
  in
  (* First pass: the rows that get a continuation, and the cells the
     new and the moved blocks take. *)
  let new_rows = ref 0 and need = ref 0 in
  let i = ref 0 in
  while !i < added do
    let j = group_end !i in
    let m = j - !i and v = links.(keys.(!i) / span) in
    if v = free then begin
      incr new_rows;
      need := !need + (2 * m) + 3
    end
    else begin
      let pos = heads.(-v - 1) in
      let count = more.(pos - 1) + m in
      if count > more.(pos - 2) then need := !need + (2 * count) + 3
    end;
    i := j
  done;
  let nh = Array.length heads in
  let heads = Array.append heads (Array.make !new_rows 0) in
  let more =
    if store.top + !need <= Array.length more then more
    else begin
      let live = ref 0 in
      for h = 0 to nh - 1 do
        live := !live + more.(heads.(h) - 2) + 3
      done;
      let fresh = Array.make (2 * (!live + !need)) free in
      store.top <- 0;
      Array.iter
        (fun e ->
          let v = links.(e) in
          if v <> free then begin
            let h = -v - 1 in
            let pos = heads.(h) and at = store.top + 2 in
            let cap = more.(pos - 2) and count = more.(pos - 1) in
            fresh.(at - 2) <- cap;
            fresh.(at - 1) <- count;
            Array.blit more pos fresh at count;
            heads.(h) <- at;
            store.top <- at + cap + 1
          end)
        used;
      fresh
    end
  in
  (* A new block of capacity [cap] holding [count] paths, at [top]. *)
  let block ~cap ~count =
    let at = store.top + 2 in
    more.(at - 2) <- cap;
    more.(at - 1) <- count;
    store.top <- at + cap + 1;
    at
  in
  let fresh = Array.make added 0 and n_fresh = ref 0 and next_h = ref nh in
  let i = ref 0 in
  while !i < added do
    let j = group_end !i in
    let e = keys.(!i) / span and m = j - !i in
    let write at =
      for k = 0 to m - 1 do
        more.(at + k) <- n + (keys.(!i + k) mod span)
      done
    in
    let v = links.(e) in
    if v = free then begin
      if starts.(e) = starts.(e + 1) then begin
        fresh.(!n_fresh) <- e;
        incr n_fresh
      end;
      let at = block ~cap:(2 * m) ~count:m in
      write at;
      heads.(!next_h) <- at;
      (* Paths before link, so a reader never follows a link to an
         unwritten block. *)
      links.(e) <- - !next_h - 1;
      incr next_h
    end
    else begin
      let h = -v - 1 in
      let pos = heads.(h) in
      let count = more.(pos - 1) in
      if count + m <= more.(pos - 2) then begin
        write (pos + count);
        more.(pos - 1) <- count + m
      end
      else begin
        let at = block ~cap:(2 * (count + m)) ~count:(count + m) in
        Array.blit more pos more at count;
        write (at + count);
        heads.(h) <- at
      end
    end;
    i := j
  done;
  ({ rows with links; heads; more }, fresh, !n_fresh)

(* [used] with the ascending edges [fresh.(0 .. count-1)] merged in. *)
let merge_used used fresh count =
  if count = 0 then used
  else begin
    let n_old = Array.length used in
    let merged = Array.make (n_old + count) 0 in
    let j = ref 0 and k = ref 0 in
    for u = 0 to Array.length merged - 1 do
      if !k < count && (!j = n_old || fresh.(!k) < used.(!j)) then begin
        merged.(u) <- fresh.(!k);
        incr k
      end
      else begin
        merged.(u) <- used.(!j);
        incr j
      end
    done;
    merged
  end

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
    (* The newest instance of a chain appends in place, into cells no
       older instance reads; any other instance (or a lost race for the
       tip) starts a new chain from a from-scratch transpose of its own
       view. *)
    let own = Atomic.compare_and_set t.store.tip n n' in
    let nnz = t.csr_offsets.(n) in
    let csr_offsets =
      room ~own t.csr_offsets ~keep:(n + 1) ~need:(n' + 1)
    in
    for p = n to n' - 1 do
      csr_offsets.(p + 1) <- csr_offsets.(p) + Path.length paths.(p)
    done;
    let csr_edges =
      room ~own t.csr_edges ~keep:nnz ~need:csr_offsets.(n')
    in
    for p = n to n' - 1 do
      Array.blit (Path.edge_id_array paths.(p)) 0 csr_edges csr_offsets.(p)
        (Path.length paths.(p))
    done;
    let rows, store =
      if own then (t.rows, t.store)
      else
        ( fst
            (build_rows
               ~edge_count:(Digraph.edge_count t.graph)
               ~path_count:n ~csr_offsets ~csr_edges),
          { tip = Atomic.make n'; top = 0 } )
    in
    let rows, fresh, n_fresh =
      append_rows rows store ~used:t.used_edges ~n ~n' ~csr_offsets
        ~csr_edges
    in
    {
      t with
      paths;
      commodity_of_path;
      paths_of_commodity;
      local_index_of_path;
      csr_offsets;
      csr_edges;
      rows;
      store;
      used_edges = merge_used t.used_edges fresh n_fresh;
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
(* The transpose's two readers: the rest of the library reads rows only
   through them.  Both walk row [e] as [edge_rows] says — its root
   segment, then its continuation block (if the row has one this
   instance can see) up to the first path the instance does not have. *)

(* The dimension check guards the unchecked reads of [f]: a row only
   yields indices below the path count. *)
let row_sums_into t f ~edges ~count dst =
  let n = Array.length t.paths in
  if Vec.dim f <> n then
    invalid_arg "Instance.row_sums_into: vector dimension is not the path count";
  let { starts; root; links; heads; more } = t.rows in
  let grown = Array.length heads > 0 in
  for i = 0 to count - 1 do
    let e = edges.(i) in
    let acc = ref 0. in
    for k = starts.(e) to starts.(e + 1) - 1 do
      let fp = Vec.unsafe_get f (Array.unsafe_get root k) in
      if fp <> 0. then acc := !acc +. fp
    done;
    if grown then begin
      let h = - links.(e) - 1 in
      if h >= 0 && h < Array.length heads then begin
        let k = ref (Array.unsafe_get heads h) in
        let p = ref (Array.unsafe_get more !k) in
        while !p < n do
          let fp = Vec.unsafe_get f !p in
          if fp <> 0. then acc := !acc +. fp;
          incr k;
          p := Array.unsafe_get more !k
        done
      end
    end;
    dst.(e) <- !acc
  done

(* [found] plus one when [p] is new (recorded at [into.(found)]). *)
let[@inline] visit ~mark ~into found p =
  if Array.unsafe_get mark p then found
  else begin
    Array.unsafe_set mark p true;
    into.(found) <- p;
    found + 1
  end

let collect_edge_paths t ~edges ~count ~mark ~into =
  let n = Array.length t.paths in
  if Array.length mark < n then
    invalid_arg "Instance.collect_edge_paths: one mark per path required";
  let { starts; root; links; heads; more } = t.rows in
  let grown = Array.length heads > 0 in
  let found = ref 0 in
  for i = 0 to count - 1 do
    let e = edges.(i) in
    for k = starts.(e) to starts.(e + 1) - 1 do
      found := visit ~mark ~into !found (Array.unsafe_get root k)
    done;
    if grown then begin
      let h = - links.(e) - 1 in
      if h >= 0 && h < Array.length heads then begin
        let k = ref (Array.unsafe_get heads h) in
        while Array.unsafe_get more !k < n do
          found := visit ~mark ~into !found (Array.unsafe_get more !k);
          incr k
        done
      end
    end
  done;
  !found

let edge_paths t e =
  if e < 0 || e >= Digraph.edge_count t.graph then
    invalid_arg "Instance.edge_paths: edge out of range";
  let n = Array.length t.paths in
  let into = Array.make n 0 in
  let found =
    collect_edge_paths t ~edges:[| e |] ~count:1 ~mark:(Array.make n false)
      ~into
  in
  Array.sub into 0 found

let shares_store a b = a.store == b.store
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
