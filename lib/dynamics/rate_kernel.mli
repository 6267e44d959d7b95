(** Compiled transition-rate kernels: the per-phase fixed point of the
    bulletin-board dynamics, factored out of the inner integration loop.

    Under stale information (Eq. 3) every decision inside a phase reads
    the {e posted} snapshot, so the sampling probabilities
    [σ_PQ(f(t̂))] and migration probabilities [µ(ℓ_P(t̂), ℓ_Q(t̂))] are
    constant until the next board post.  Compiling a board therefore
    yields, per commodity, a dense matrix of per-unit migration rates

    [R_PQ = σ_PQ(f(t̂)) · µ(ℓ_P(t̂), ℓ_Q(t̂))]   (P ≠ Q, [R_PP = 0])

    against which the fluid ODE collapses to a linear matvec in the live
    flow: [ḟ_P = Σ_Q f_Q R_QP − f_P Σ_Q R_PQ].  Evaluating it allocates
    nothing and dispatches no closures — the policy is consulted only at
    {!build} time.

    A kernel is only valid for the board it was built from: whenever the
    board is re-posted (every phase under [Stale], every step under
    [Fresh]) the kernel must be rebuilt — either from scratch with
    {!build} or, when the previous kernel is at hand, incrementally
    with {!update}. *)

open Staleroute_wardrop

type t

val entry_count : Instance.t -> int
(** Number of σ·µ matrix entries a kernel over this instance holds
    (sum over commodities of local-path-count squared) — the work unit
    of one compile, and the currency of {!build}'s sharding threshold
    and {!Staleroute_util.Pool.gate}'s fan-out estimates. *)

val build :
  ?pool:Staleroute_util.Pool.t ->
  ?shard_min_entries:int ->
  Instance.t ->
  Policy.t ->
  board:Bulletin_board.t ->
  t
(** Compile the policy against a posted board.  Cost is one σ/µ
    evaluation per ordered path pair — the same work a single reference
    {!Rates.flow_derivative} call performs every integrator sub-step.

    With [?pool], multi-commodity instances compile their per-commodity
    σ·µ blocks in parallel (the blocks occupy disjoint slices of the
    kernel, so the sharded build is bit-identical to the sequential
    one).  Sharding only engages once the kernel holds at least
    [shard_min_entries] matrix entries (default 65536): below that the
    domain handoff costs more than the whole sequential compile, so
    small builds ignore the pool.  Pass [~shard_min_entries:0] to force
    sharding whenever a pool is supplied.  Do not pass a pool from
    inside a pool task — builds on the driver paths run within
    experiment tasks and must stay sequential there (the default).

    Raises [Invalid_argument "Rate_kernel.build: board is over a
    different instance"] when the board's path count or flow dimension
    is not the instance's. *)

val update : ?changed:int array * int -> t -> board:Bulletin_board.t -> t
(** [update t ~board] recompiles [t] {e in place} against a newly
    posted board and returns it: only σ·µ entries whose inputs (posted
    path latencies, and for flow-dependent samplings the posted flow)
    changed bits since the board [t] was compiled against are
    recomputed, and nothing is allocated.  The result is {b bitwise
    identical} to [build inst policy ~board]: both run the same block
    compiler, and an entry is reused only when its inputs are
    bit-unchanged.  Checkpoint/resume reconstructs kernels with {!build}
    mid-chain and the byte-identity of resumed traces rides on the
    equivalence (qcheck pins it down).

    [?changed:(paths, count)] narrows the dirty scan to the first
    [count] entries of [paths] — ascending global indices such that
    {b every other path has bit-unchanged posted latency and posted
    flow} (exactly what {!Bulletin_board.changed_paths} hands out after
    a delta repost).  Commodities owning no listed path are skipped
    without being scanned, so the update costs
    O(changed + refreshed entries) instead of O(|P|).  The caller owns
    the guarantee; a wrong changed set silently leaves stale entries.
    Without it, every path is compared (same result, full scan).

    The previous kernel value is destroyed: callers must not hold on to
    [t] as a kernel for the old board.  Policies with [Custom] sampling
    or migration fall back to a full (still allocation-free) in-place
    recompile — the closures are re-invoked exactly as a fresh build
    would, and [?changed] is ignored.  {!revision} advances to the new
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
    [f_P] to recover {!Rates.migration_rate}. *)

val flow_derivative_into :
  t -> Flow.t -> dst:Staleroute_util.Vec.t -> unit
(** [ḟ] at the live flow, written into [dst] (fully overwritten).
    Allocation-free.  [dst] must not alias the flow argument.  Raises
    [Invalid_argument] on dimension mismatch. *)

val flow_derivative : t -> Flow.t -> Staleroute_util.Vec.t
(** Allocating convenience wrapper around {!flow_derivative_into};
    agrees with the reference [Rates.flow_derivative] on the same board
    up to float rounding (different summation order). *)
