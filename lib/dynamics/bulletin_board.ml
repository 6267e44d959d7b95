open Staleroute_wardrop
module Vec = Staleroute_util.Vec
module Latency = Staleroute_latency.Latency

type t = {
  posted_at : float;
  flow : Flow.t;
  path_latencies : float array;
  edge_latencies : float array;
  revision : int;
  clean : bool;
}

(* Process-wide post counter: every snapshot gets a strictly increasing
   revision, so a compiled kernel can prove it was built against the
   latest posting (Rate_kernel.is_current).  Atomic, not a plain ref:
   since the domain pool landed, boards are posted concurrently from
   pooled experiment runs, and a torn [incr] could hand two boards the
   same revision — letting [is_current] accept a kernel built against a
   different posting. *)
let posts_counter = Atomic.make 0

let posts () = Atomic.get posts_counter

let next_revision () = 1 + Atomic.fetch_and_add posts_counter 1

let edge_count inst =
  Staleroute_graph.Digraph.edge_count (Instance.graph inst)

(* The no-copy constructor behind every posting path: the caller owns
   all three containers outright (it just built or copied them). *)
let make_owned ~time ~flow ~path_latencies ~edge_latencies ~clean =
  {
    posted_at = time;
    flow;
    path_latencies;
    edge_latencies;
    revision = next_revision ();
    clean;
  }

(* --- sparse-delta re-posting --- *)

type delta = {
  mutable edge_mark : bool array;  (* edge id: flow re-gather pending *)
  mutable dirty_edge : int array;  (* packed list of marked edges *)
  mutable n_dirty_edges : int;
  mutable path_mark : bool array;  (* path: latency recompute pending *)
  mutable dirty_path : int array;  (* packed list of marked paths *)
  mutable n_dirty_paths : int;
  mutable changed : int array;  (* ascending: flow or latency bits moved *)
  mutable n_changed : int;
}

let delta () =
  {
    edge_mark = [||];
    dirty_edge = [||];
    n_dirty_edges = 0;
    path_mark = [||];
    dirty_path = [||];
    n_dirty_paths = 0;
    changed = [||];
    n_changed = 0;
  }

let ensure d ~edges ~paths =
  if Array.length d.edge_mark < edges then begin
    d.edge_mark <- Array.make edges false;
    d.dirty_edge <- Array.make edges 0
  end;
  if Array.length d.path_mark < paths then begin
    d.path_mark <- Array.make paths false;
    d.dirty_path <- Array.make paths 0;
    d.changed <- Array.make paths 0
  end

let dirty_edges d = d.n_dirty_edges
let dirty_paths d = d.n_dirty_paths
let changed_count d = d.n_changed
let changed_paths d = d.changed

let[@inline] bits_differ a b = Int64.bits_of_float a <> Int64.bits_of_float b

let check_frame ~who inst ~prev ~edge_latencies flow =
  let n = Instance.path_count inst in
  let ec = edge_count inst in
  if Vec.dim flow <> n then invalid_arg (who ^ ": flow dimension mismatch");
  (match edge_latencies with
  | Some el when Array.length el <> ec ->
      invalid_arg (who ^ ": one latency per edge required")
  | _ -> ());
  match prev with
  | Some prev
    when Vec.dim prev.flow <> n || Array.length prev.edge_latencies <> ec ->
      invalid_arg (who ^ ": previous board is over a different instance")
  | _ -> ()

(* Recompute the latencies of every path incident to a listed dirty
   edge, via the transposed incidence; everything else keeps its copied
   (bit-identical) value.  Also fills [d.dirty_path] and clears the path
   marks on the way out. *)
let refresh_dirty_path_latencies d inst ~edge_latencies ~path_latencies =
  let t_off = Instance.edge_csr_offsets inst in
  let t_paths = Instance.edge_csr_paths inst in
  d.n_dirty_paths <- 0;
  for i = 0 to d.n_dirty_edges - 1 do
    let e = d.dirty_edge.(i) in
    for k = t_off.(e) to t_off.(e + 1) - 1 do
      let p = Array.unsafe_get t_paths k in
      if not (Array.unsafe_get d.path_mark p) then begin
        Array.unsafe_set d.path_mark p true;
        d.dirty_path.(d.n_dirty_paths) <- p;
        d.n_dirty_paths <- d.n_dirty_paths + 1
      end
    done
  done;
  Flow.path_latencies_into inst ~edge_latencies ~paths:d.dirty_path
    ~count:d.n_dirty_paths path_latencies;
  for i = 0 to d.n_dirty_paths - 1 do
    d.path_mark.(d.dirty_path.(i)) <- false
  done

(* The changed set handed to [Rate_kernel.update]: paths whose posted
   flow or posted latency moved bits, in ascending order. *)
let collect_changed d ~n ~flow ~pflow ~path_latencies ~prev_path_latencies =
  d.n_changed <- 0;
  for p = 0 to n - 1 do
    if
      bits_differ (Vec.unsafe_get flow p) (Vec.unsafe_get pflow p)
      || bits_differ
           (Array.unsafe_get path_latencies p)
           (Array.unsafe_get prev_path_latencies p)
    then begin
      d.changed.(d.n_changed) <- p;
      d.n_changed <- d.n_changed + 1
    end
  done

let[@inline] push_dirty_edge d e =
  d.dirty_edge.(d.n_dirty_edges) <- e;
  d.n_dirty_edges <- d.n_dirty_edges + 1

(* The one posting routine behind [post] and [repost]: the only code
   that computes a new board's edge and path latencies.  The edge
   latencies are the caller's [edge_latencies] (copied; the board is
   unclean) or the ones [flow] induces (clean).

   Only dirty edges are (re)computed, and only paths incident to a
   dirty edge get their latency recomputed; everything else keeps
   [prev]'s bits.  Dirty edges are the supplied latencies that moved
   bits against [prev]'s, or, from a clean [prev], the edges of paths
   whose flow moved bits, their loads re-gathered by
   [Flow.edge_flows_into].  Without a previous board, or from an
   unclean one with induced latencies, every edge is dirty: the sparse
   gather is only sound from a clean [prev], whose latencies are
   exactly the ones its flow induces.  Unchanged inputs through the
   same pure float expressions give unchanged bits, so the board does
   not depend on [prev].  With a previous board the changed-path set
   for [Rate_kernel.update] is extracted into [d]. *)
let publish ~who ?delta:d ?edge_latencies:supplied inst ~prev ~time flow =
  check_frame ~who inst ~prev ~edge_latencies:supplied flow;
  let n = Instance.path_count inst in
  let ec = edge_count inst in
  let d = match d with Some d -> d | None -> delta () in
  ensure d ~edges:ec ~paths:n;
  d.n_dirty_edges <- 0;
  let sparse_prev =
    match prev with
    | Some p when p.clean || Option.is_some supplied -> prev
    | _ -> None
  in
  (match (sparse_prev, supplied) with
  | None, _ ->
      for e = 0 to ec - 1 do
        push_dirty_edge d e
      done
  | Some prev, Some el ->
      for e = 0 to ec - 1 do
        if bits_differ el.(e) prev.edge_latencies.(e) then push_dirty_edge d e
      done
  | Some prev, None ->
      let offsets = Instance.csr_offsets inst in
      let edges = Instance.csr_edges inst in
      for p = 0 to n - 1 do
        if bits_differ (Vec.unsafe_get flow p) (Vec.unsafe_get prev.flow p)
        then
          for k = offsets.(p) to offsets.(p + 1) - 1 do
            let e = Array.unsafe_get edges k in
            if not (Array.unsafe_get d.edge_mark e) then begin
              Array.unsafe_set d.edge_mark e true;
              push_dirty_edge d e
            end
          done
      done;
      for i = 0 to d.n_dirty_edges - 1 do
        d.edge_mark.(d.dirty_edge.(i)) <- false
      done);
  let edge_latencies =
    match (supplied, sparse_prev) with
    | Some el, _ -> Array.copy el
    | None, Some prev -> Array.copy prev.edge_latencies
    | None, None -> Array.make ec 0.
  in
  if Option.is_none supplied then begin
    (* The loads are parked in the latency slots, evaluated in place. *)
    Flow.edge_flows_into inst flow ~edges:d.dirty_edge ~count:d.n_dirty_edges
      edge_latencies;
    Latency.eval_into (Instance.latencies inst) ~edges:d.dirty_edge
      ~count:d.n_dirty_edges edge_latencies edge_latencies
  end;
  let path_latencies =
    match sparse_prev with
    | Some prev -> Array.copy prev.path_latencies
    | None -> Array.make n 0.
  in
  refresh_dirty_path_latencies d inst ~edge_latencies ~path_latencies;
  (match prev with
  | None -> ()
  | Some prev ->
      collect_changed d ~n ~flow ~pflow:prev.flow ~path_latencies
        ~prev_path_latencies:prev.path_latencies);
  make_owned ~time ~flow:(Vec.copy flow) ~path_latencies ~edge_latencies
    ~clean:(Option.is_none supplied)

let post ?edge_latencies inst ~time flow =
  publish ~who:"Bulletin_board.post" ?edge_latencies inst ~prev:None ~time flow

let repost ?delta ?edge_latencies inst ~prev ~time flow =
  publish ~who:"Bulletin_board.repost" ?delta ?edge_latencies inst
    ~prev:(Some prev) ~time flow

let restore inst ~time ~flow ~edge_latencies =
  (* Checkpoint-resume constructor: [post ~edge_latencies] plus a
     cleanliness verification on this cold path.  A resumed run must
     drive the same sparse-vs-full repost decisions (and dirty
     counters) as the uninterrupted one, so a board whose latencies are
     exactly the ones its flow induces gets its [clean] bit back. *)
  let b = post ~edge_latencies inst ~time flow in
  let induced = Flow.edge_latencies inst (Flow.edge_flows inst flow) in
  let clean = ref true in
  for e = 0 to Array.length induced - 1 do
    if bits_differ induced.(e) b.edge_latencies.(e) then clean := false
  done;
  { b with clean = !clean }

let repost_grown inst ~prev =
  let n = Instance.path_count inst in
  let n0 = Vec.dim prev.flow in
  if n < n0 then
    invalid_arg "Bulletin_board.repost_grown: the path set shrank";
  if Array.length prev.edge_latencies <> edge_count inst then
    invalid_arg
      "Bulletin_board.repost_grown: previous board is over a different graph";
  (* Same snapshot over the grown index: admitted columns carry zero
     posted flow, so edge flows — hence edge latencies — are untouched,
     and the latency array is shared with [prev] outright (boards are
     immutable).  Only the new columns' path latencies are computed. *)
  let path_latencies = Array.make n 0. in
  Array.blit prev.path_latencies 0 path_latencies 0 n0;
  let edge_latencies = prev.edge_latencies in
  for p = n0 to n - 1 do
    path_latencies.(p) <- Flow.path_latency inst ~edge_latencies p
  done;
  make_owned ~time:prev.posted_at
    ~flow:(Vec.extend prev.flow ~dim:n)
    ~path_latencies ~edge_latencies ~clean:prev.clean

let revision b = b.revision

