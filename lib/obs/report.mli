(** End-of-run human summary over a captured event stream.

    Built from the events a {!Probe.Memory} buffer collected (plus an
    optional metrics snapshot), a report answers the questions the
    paper's measurements ask — how did [Φ] move phase by phase, how
    often was information re-posted, how much work did the run do —
    and renders them as ASCII tables plus a potential-gap sparkline. *)

type t

val of_events : ?snapshot:Metrics.snapshot -> Probe.event array -> t

(** {1 Derived counts} *)

val phases : t -> int
(** Number of [Phase_start] events. *)

val board_reposts : t -> int
val kernel_rebuilds : t -> int
val step_batches : t -> int
val agent_wakes : t -> int
val migrations : t -> int
(** [Agent_wake] events with [migrated = true]. *)

val path_growths : t -> int
(** Number of [Path_growth] events (columns admitted by colgen). *)

val faults_injected : t -> int
(** Number of [Fault_injected] events. *)

val guard_trips : t -> int
(** Number of [Guard_trip] events. *)

val edge_downs : t -> int
(** Number of [Edge_down] events (topology-outage edge failures). *)

val edge_ups : t -> int
(** Number of [Edge_up] events (topology-outage edge repairs). *)

val fault_kind_counts : t -> (string * int) list
(** Per-kind fault tally: the board-fault kinds (["drop"], ["delay"],
    ["partial"], ["noise"]) that fired, in plan order, followed by
    ["edge down"] / ["edge up"] outage transitions.  Empty for a clean
    run — {!to_string} renders it as a separate faults table only when
    non-empty, so clean-run reports are unchanged. *)

(** {1 Derived series} *)

val potential_series : t -> (float * float) array
(** [(time, Φ)] at every phase start plus the final phase end: the
    series {!Staleroute_dynamics.Convergence.potential_gap} reads off a
    driver result with [phi_star = 0.]. *)

val delta_phi_series : t -> float array
(** Per-phase [ΔΦ] in phase order (from [Phase_end] events). *)

val virtual_gain_series : t -> float array

val to_string : t -> string
(** The rendered report: a run-summary table, a per-phase [ΔΦ]
    distribution, a per-kind faults table when any fault fired, the
    metrics snapshot table when one was supplied, and an ASCII
    sparkline of the potential gap [Φ(t) − min Φ]. *)

val print : t -> unit
(** [to_string] to stdout. *)
