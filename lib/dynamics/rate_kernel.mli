(** Compiled transition-rate kernels: the per-phase fixed point of the
    bulletin-board dynamics, factored out of the inner integration loop.

    Under stale information (Eq. 3) every decision inside a phase reads
    the {e posted} snapshot, so the sampling probabilities
    [σ_PQ(f(t̂))] and migration probabilities [µ(ℓ_P(t̂), ℓ_Q(t̂))] are
    constant until the next board post, and the fluid ODE is linear in
    the live flow:

    [ḟ_P = Σ_Q f_Q R_QP − f_P Σ_Q R_PQ],  [R_PQ = σ_PQ · µ(ℓ_P, ℓ_Q)].

    Every policy has a special form: its sampling is origin-independent
    ([σ_PQ = σ_Q]) and its migration is 0 unless [ℓ_Q < ℓ_P], affine in
    [ℓ_Q] below [ℓ_P], and 1 past one breakpoint.  The kernel stores,
    per commodity, its paths sorted by
    posted latency together with σ, each position's first strictly
    larger latency, its µ = 1 breakpoint and its row sum [Σ_Q R_PQ].
    An evaluation gathers the live flow in that order and forms inflows
    from suffix sums: O(|P_i|) per commodity, with no [|P_i|²] storage.
    The window sums are anchored at the first latency of a cluster,
    where clusters split the sorted order at every gap of at least the
    window width (under [Relative], wherever the latency more than
    doubles), so no sum subtracts across a dead edge's
    {!Faults.dead_latency}.  A commodity whose posted latencies are not
    all finite (or, under [Relative] migration, not all nonnegative) is
    evaluated pair by pair instead, from σ and {!Migration.prob}, with
    no stored matrix.  So is every commodity under a migration whose
    parameter lies outside its domain (a negative or NaN [ell_max] or
    [alpha], a [scale] outside (0, 1]), where µ has no such form.

    Evaluating allocates nothing and dispatches no closures.  A kernel
    is only valid for the board it was built from: whenever the board
    is re-posted (every phase under [Stale], every step under [Fresh])
    it must be recompiled — from scratch with {!build} or in place with
    {!update}. *)

open Staleroute_wardrop

type t

val entry_count : Instance.t -> int
(** Number of ordered path pairs a kernel over this instance covers
    (sum over commodities of local-path-count squared) — the work unit
    of a pairwise evaluation and of {!Staleroute_util.Pool.gate}'s
    fan-out estimates. *)

val build : Instance.t -> Policy.t -> board:Bulletin_board.t -> t
(** Compile the policy against a posted board.  A commodity costs one
    σ evaluation and an insertion sort of its paths from path-index
    order, O(|P_i| + inversions); a pairwise one, one µ evaluation per
    ordered path pair.

    Raises [Invalid_argument "Rate_kernel.build: board is over a
    different instance"] when the board's path count or flow dimension
    is not the instance's. *)

val update : ?changed:int array * int -> t -> board:Bulletin_board.t -> t
(** [update t ~board] recompiles [t] {e in place} against a newly
    posted board and returns it, allocating nothing.  Each commodity
    re-sorts by insertion sort from the previous order, O(|P_i| +
    inversions), since consecutive posts barely reorder.  The result is
    {b bitwise identical} to [build inst policy ~board]: the sort
    reaches the unique order by (posted latency, path index), and
    everything else is a function of that order and the board.
    Checkpoint/resume reconstructs kernels with {!build} mid-chain, and
    the byte-identity of resumed traces rides on this equivalence
    (qcheck pins it down).

    [?changed:(paths, count)] names the first [count] entries of
    [paths] as the only paths whose posted latency or posted flow may
    have changed bits (exactly what {!Bulletin_board.changed_paths}
    hands out after a delta repost); only commodities owning a listed
    path are recompiled.  The caller owns the guarantee; a wrong
    changed set silently leaves stale commodities.  Without it every
    commodity is recompiled.

    The previous kernel value is destroyed: callers must not hold on to
    [t] as a kernel for the old board.  {!revision} advances to the new
    board's revision, exactly as a rebuild.  Raises
    [Invalid_argument "Rate_kernel.update: board is over a different
    instance"] when the board's path count or flow dimension is not the
    kernel's. *)

val dim : t -> int
(** Size of the global path index the kernel was built over. *)

val revision : t -> int
(** The {!Bulletin_board.revision} of the board the kernel was compiled
    against. *)

val is_current : t -> board:Bulletin_board.t -> bool
(** Whether this kernel was compiled against exactly the given board
    posting.  The driver paths assert this before every integration —
    using a kernel across a re-post is the staleness bug the
    revision counter exists to catch. *)

val rate : t -> from_:int -> int -> float
(** [R_PQ] for global path indices (0 when [P = Q] or the paths belong
    to different commodities).  The per-unit rate: multiply by the live
    [f_P] to recover {!Rates.migration_rate}.  Formed as
    [σ_Q · µ(ℓ_P, ℓ_Q)] on the fly, bit for bit the product of the
    sampling distribution and {!Migration.prob}. *)

val flow_derivative_into :
  t -> Flow.t -> dst:Staleroute_util.Vec.t -> unit
(** [ḟ] at the live flow, written into [dst] (fully overwritten).
    Allocation-free.  [dst] must not alias the flow argument.  The
    kernel owns the evaluation scratch, so one kernel must not be
    evaluated from two domains at once.  Raises [Invalid_argument] on
    dimension mismatch. *)

val flow_derivative : t -> Flow.t -> Staleroute_util.Vec.t
(** Allocating convenience wrapper around {!flow_derivative_into};
    agrees with the reference [Rates.flow_derivative] on the same board
    up to float rounding (the kernel sums in a different order and
    through prefix sums). *)
