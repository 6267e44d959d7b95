open Staleroute_wardrop
module Vec = Staleroute_util.Vec
module Latency = Staleroute_latency.Latency

(* Edge latencies are a rerooting persistent array (Baker's trick, as in
   Conchon & Filliâtre, "A Persistent Union-Find Data Structure", 2007)
   whose versions are the boards themselves.  The boards of a family
   share [cells]; the one whose [undo] is [Holder] finds its latencies
   there, every other one through a chain of undo records leading to it:
   the edges where it differs from the [next] board along the chain, and
   its own values there.  Reading a board first makes it the holder. *)
type latencies = float array

type t = {
  posted_at : float;
  flow : Flow.t;
  path_latencies : float array;
  cells : latencies;
  mutable undo : undo;
  revision : int;
  clean : bool;
}

and undo = Holder | Undo of { idx : int array; vals : float array; next : t }

(* Make [b], whose successor along the chain is the holder, the holder:
   swapping [b]'s undo record into the cells turns it into the
   successor's. *)
let swap_in b =
  match b.undo with
  | Holder -> ()
  | Undo { idx; vals; next } ->
      let a = b.cells in
      for i = 0 to Array.length idx - 1 do
        let j = idx.(i) in
        let x = a.(j) in
        a.(j) <- vals.(i);
        vals.(i) <- x
      done;
      b.undo <- Holder;
      next.undo <- Undo { idx; vals; next = b }

(* The boards from [c] to the holder, excluded, nearest the holder
   first, onto [acc]. *)
let rec chain acc c =
  match c.undo with Holder -> acc | Undo { next; _ } -> chain (c :: acc) next

(* Make [b] the holder: swap the records in from the holder's end back
   to [b] — a loop, so reading a board many versions back needs no
   stack. *)
let reroot b =
  match b.undo with Holder -> () | Undo _ -> List.iter swap_in (chain [] b)

let edge_latencies b =
  reroot b;
  b.cells

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
   all three containers outright (it just built or copied them, or wrote
   this board's latencies into its family's cells). *)
let make_owned ~time ~flow ~path_latencies ~cells ~clean =
  {
    posted_at = time;
    flow;
    path_latencies;
    cells;
    undo = Holder;
    revision = next_revision ();
    clean;
  }

(* Deriving a board from its holder [prev] writes only the dirty cells
   and keeps their old values in an undo record — unless the array fits
   the minor heap (at most [Max_young_wosize] = 256 words), where a copy
   dies young with its board.  A copy also leaves [prev] untouched,
   whereas the record makes [prev] point at a young board: once [prev]
   has been promoted, the minor collector then promotes every board
   derived after it, live or not. *)
let copy_is_cheaper ~length = length <= 256

(* [publish]'s "no previous board", so that [repost] hands its board
   over without boxing it in an option. *)
let none =
  {
    posted_at = nan;
    flow = Vec.create 0 0.;
    path_latencies = [||];
    cells = [||];
    undo = Holder;
    revision = 0;
    clean = false;
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
  if prev != none && (Vec.dim prev.flow <> n || Array.length prev.cells <> ec)
  then invalid_arg (who ^ ": previous board is over a different instance")

(* Recompute the latencies of every path incident to a listed dirty
   edge; everything else keeps its copied (bit-identical) value.  Also
   fills [d.dirty_path] and clears the path marks on the way out. *)
let refresh_dirty_path_latencies d inst ~edge_latencies ~path_latencies =
  d.n_dirty_paths <-
    Instance.collect_edge_paths inst ~edges:d.dirty_edge
      ~count:d.n_dirty_edges ~mark:d.path_mark ~into:d.dirty_path;
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

(* The dirty edges' induced latencies into [dst]: their loads are
   parked in their latency slots and evaluated in place. *)
let induce d inst flow dst =
  Flow.edge_flows_into inst flow ~edges:d.dirty_edge ~count:d.n_dirty_edges dst;
  Latency.eval_into (Instance.latencies inst) ~edges:d.dirty_edge
    ~count:d.n_dirty_edges dst dst

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
  (* Latencies read off a board of [prev]'s family are the family's
     cells, which reading [prev] below rewrites: take them by value. *)
  let supplied =
    match supplied with
    | Some el when prev != none && el == prev.cells -> Some (Array.copy el)
    | _ -> supplied
  in
  let n = Instance.path_count inst in
  let ec = edge_count inst in
  let d = match d with Some d -> d | None -> delta () in
  ensure d ~edges:ec ~paths:n;
  d.n_dirty_edges <- 0;
  (* Only a clean previous board's latencies are exactly the ones its
     flow induces; supplied latencies are compared outright. *)
  let sparse = prev != none && (prev.clean || Option.is_some supplied) in
  (match supplied with
  | _ when not sparse ->
      for e = 0 to ec - 1 do
        push_dirty_edge d e
      done
  | Some el ->
      let prev_el = edge_latencies prev in
      for e = 0 to ec - 1 do
        if bits_differ el.(e) prev_el.(e) then push_dirty_edge d e
      done
  | None ->
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
  let count = d.n_dirty_edges in
  (* Over a previous board only the dirty edges are written: into a copy
     of its latencies, or into its family's cells under an undo record. *)
  let undo = sparse && not (copy_is_cheaper ~length:ec) in
  let cells =
    if undo then edge_latencies prev
    else
      match supplied with
      | Some el -> Array.copy el
      | None ->
          if sparse then Array.copy (edge_latencies prev) else Array.make ec 0.
  in
  let idx = if undo then Array.sub d.dirty_edge 0 count else [||] in
  let vals = if undo then Array.create_float count else [||] in
  for i = 0 to Array.length vals - 1 do
    vals.(i) <- cells.(idx.(i))
  done;
  (match supplied with
  | Some el ->
      if undo then
        for i = 0 to count - 1 do
          cells.(idx.(i)) <- el.(idx.(i))
        done
  | None -> induce d inst flow cells);
  let path_latencies =
    if sparse then Array.copy prev.path_latencies else Array.make n 0.
  in
  refresh_dirty_path_latencies d inst ~edge_latencies:cells ~path_latencies;
  if prev != none then
    collect_changed d ~n ~flow ~pflow:prev.flow ~path_latencies
      ~prev_path_latencies:prev.path_latencies;
  let b =
    make_owned ~time ~flow:(Vec.copy flow) ~path_latencies ~cells
      ~clean:(Option.is_none supplied)
  in
  if undo then prev.undo <- Undo { idx; vals; next = b };
  b

let post ?edge_latencies inst ~time flow =
  publish ~who:"Bulletin_board.post" ?edge_latencies inst ~prev:none ~time flow

let repost ?delta ?edge_latencies inst ~prev ~time flow =
  publish ~who:"Bulletin_board.repost" ?delta ?edge_latencies inst
    ~prev ~time flow

let restore inst ~time ~flow ~edge_latencies =
  (* Checkpoint-resume constructor: [post ~edge_latencies] plus a
     cleanliness verification on this cold path.  A resumed run must
     drive the same sparse-vs-full repost decisions (and dirty
     counters) as the uninterrupted one, so a board whose latencies are
     exactly the ones its flow induces gets its [clean] bit back. *)
  let b = post ~edge_latencies inst ~time flow in
  let induced = Flow.edge_latencies inst (Flow.edge_flows inst flow) in
  let posted = b.cells in
  let clean = ref true in
  for e = 0 to Array.length induced - 1 do
    if bits_differ induced.(e) posted.(e) then clean := false
  done;
  { b with clean = !clean }

let repost_grown inst ~prev =
  let n = Instance.path_count inst in
  let n0 = Vec.dim prev.flow in
  if n < n0 then
    invalid_arg "Bulletin_board.repost_grown: the path set shrank";
  if Array.length prev.cells <> edge_count inst then
    invalid_arg
      "Bulletin_board.repost_grown: previous board is over a different graph";
  (* Same snapshot over the grown index: admitted columns carry zero
     posted flow, so edge flows — hence edge latencies — are untouched:
     the new board takes over [prev]'s cells under an empty undo record
     (or copies them, when that is cheaper).  Only the new columns' path
     latencies are computed. *)
  let path_latencies = Array.make n 0. in
  Array.blit prev.path_latencies 0 path_latencies 0 n0;
  let edge_latencies = edge_latencies prev in
  for p = n0 to n - 1 do
    path_latencies.(p) <- Flow.path_latency inst ~edge_latencies p
  done;
  let share =
    not (copy_is_cheaper ~length:(Array.length edge_latencies))
  in
  let b =
    make_owned ~time:prev.posted_at
      ~flow:(Vec.extend prev.flow ~dim:n)
      ~path_latencies
      ~cells:(if share then edge_latencies else Array.copy edge_latencies)
      ~clean:prev.clean
  in
  if share then prev.undo <- Undo { idx = [||]; vals = [||]; next = b };
  b

let revision b = b.revision

