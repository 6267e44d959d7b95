(** Hierarchical wall-clock timing spans: the profiling half of the
    observability layer.

    A {!recorder} either is {!null} (disabled — entering and exiting a
    span is a branch and nothing else: no clock read, no allocation,
    mirroring {!Probe.null}) or accumulates, per span {e name}, the
    call count, total and {e self} wall time (total minus time spent in
    child spans) and every duration sample, summarised into quantiles
    at {!profile} time via [Stats.quantiles].

    Instrumented code brackets a region with {!enter}/{!exit}:

    {[
      let s = Span.enter spans "kernel_build" in
      let kernel = Rate_kernel.build inst policy ~board in
      Span.exit spans s;
    ]}

    The handle is an immediate value, so a disabled recorder keeps the
    0-allocation contracts of the hot paths intact (the test suite's
    allocation cases enforce this).  Spans nest: a span entered while
    another is open is its child, and the parent's self time excludes
    the child's total.  {!exit} must be called in LIFO order with the
    handle {!enter} returned.

    Everything recorded here is wall-clock and therefore {e excluded
    from every byte-identity surface}: span data never enters traces,
    driver records or deterministic bench snapshots — it is only
    surfaced through the opt-in [routesim --profile] flag and the bench
    [profile] mode (DESIGN.md §12).  No metric reads a clock.

    A recorder is single-domain state, like a [Probe.Memory] buffer:
    create one per run, never share one across pool tasks.  If the
    timed region raises, the open-span stack is left unbalanced and the
    recorder's subsequent output is unspecified — the run is lost
    anyway.  For cold regions where exceptions are expected (file
    I/O), use {!record}, which restores balance on the way out. *)

type recorder

val null : recorder
(** The disabled recorder: {!enter} / {!exit} on it are no-ops. *)

val create : unit -> recorder
val enabled : recorder -> bool

type handle
(** An open span (an immediate value — no allocation). *)

val enter : recorder -> string -> handle
(** Open a span named [name].  On {!null}: a branch, nothing else.
    Pass a literal — the name is the aggregation key. *)

val exit : recorder -> handle -> unit
(** Close the {e most recently opened} span; [handle] must be the value
    the matching {!enter} returned (checked, [Invalid_argument]
    otherwise — a mismatch means unbalanced instrumentation). *)

val record : recorder -> string -> (unit -> 'a) -> 'a
(** [record r name f] = [f ()] bracketed by {!enter}/{!exit}, restoring
    stack balance if [f] raises.  Allocates a closure — fine for cold
    regions (checkpoint I/O, equilibrium solves), not for hot loops. *)

(** {1 Profiles} *)

type entry = {
  name : string;
  count : int;
  total_ns : float;  (** summed wall time of all spans of this name *)
  self_ns : float;  (** total minus time spent in child spans *)
  p50_ns : float;  (** median single-span duration *)
  p90_ns : float;
  max_ns : float;
}

type profile = entry list
(** Sorted by decreasing [total_ns] (ties broken by name). *)

val profile : recorder -> profile
(** Summarise everything recorded so far ([[]] on {!null} or an unused
    recorder).  Open spans are not included. *)

val to_table : profile -> Staleroute_util.Table.t
(** Render as an ASCII table (times in ms). *)

val to_json : profile -> Json.t
(** One object per entry, keyed by name in profile order — all values
    wall-clock, so never part of a byte-identity surface. *)
