(** Structured probes: a zero-cost-when-disabled event stream out of the
    dynamics stack.

    A probe either is {!null} (disabled — emitting is a no-op) or wraps
    a {!sink} callback.  Instrumented code guards event {e construction}
    behind {!enabled}, so a disabled probe costs one immediate-value
    branch and allocates nothing:

    {[
      if Probe.enabled probe then
        Probe.emit probe (Probe.Board_repost { time })
    ]}

    Events are stamped with {e simulated} time (the driver's monotonic
    clock), never wall-clock time, so event streams are reproducible
    from seeds and byte-stable across runs. *)

type event =
  | Phase_start of { index : int; time : float; potential : float }
      (** a bulletin-board phase begins; [potential] is [Φ] at its
          starting flow. *)
  | Phase_end of {
      index : int;
      time : float;  (** end of the phase (start + phase length) *)
      potential : float;  (** [Φ] at the phase-end flow *)
      virtual_gain : float;  (** [V(f̂, f_end)] over the phase (Eq. 8) *)
      delta_phi : float;  (** true potential change over the phase *)
    }
  | Board_repost of { time : float }
      (** a fresh snapshot was posted to the bulletin board. *)
  | Kernel_rebuild of { time : float }
      (** a {!Rate_kernel} was compiled against the latest board. *)
  | Step_batch of {
      time : float;  (** sim time at the start of the batch *)
      scheme : string;  (** integrator scheme name *)
      steps : int;
      tau : float;  (** total simulated time the batch advances *)
    }  (** one [integrate_phase_into] call (a batch of ODE steps). *)
  | Agent_wake of {
      time : float;
      agent : int;
      from_path : int;
      to_path : int;  (** equals [from_path] when the agent stayed *)
      migrated : bool;
    }  (** one Poisson activation in the finite-population simulator. *)
  | Path_growth of {
      time : float;
      index : int;  (** phase whose posting priced it *)
      commodity : int;
      cost : float;  (** posted latency of the admitted column *)
      incumbent : float;  (** cheapest active posted latency it undercut *)
      path_count : int;  (** global path count {e after} this admission *)
    }
      (** column generation admitted a path: the pricing oracle found a
          column strictly cheaper (beyond the pool tolerance) than every
          active alternative under the {e posted} board.  Emitted before
          the accompanying [Board_repost]/[Kernel_rebuild] pair (a grown
          set is a new revision, like a re-post).  Carries the commodity
          and costs, not the edge list — paths are recoverable from the
          seed + admission order, which checkpoints record. *)
  | Fault_injected of { time : float; index : int; kind : string; arg : float }
      (** a bulletin-board fault fired at update [index] (the phase
          index, or phase × steps + step under fresh information):
          [kind] is ["drop"], ["delay"], ["partial"] or ["noise"],
          [arg] the fault parameter (delay fraction, refresh fraction,
          noise sigma; [0.] for drops).  Stamped with sim time like
          every other event. *)
  | Edge_down of { time : float; index : int; edge : int }
      (** the outage plan killed [edge] at phase [index] — the board
          will post it at [Faults.dead_latency] until it recovers. *)
  | Edge_up of { time : float; index : int; edge : int }
      (** the outage plan repaired [edge]; the next landing post shows
          its true latency again. *)
  | Guard_trip of {
      time : float;
      index : int;  (** phase index of the boundary check *)
      action : string;
          (** ["repair"], ["ignore"], or ["partition"] (an outage left
              a commodity with no surviving path — not repairable, so
              Repair and Ignore guards both just record it) *)
      worst : float;  (** largest observed feasibility error; [nan]
                          when a non-finite entry tripped the guard *)
    }  (** a numeric guardrail found an unhealthy flow at a phase
          boundary (see [Guard]).  [Fail_fast] guards raise instead of
          emitting. *)
  | Note of { time : float; name : string; value : float }
      (** free-form scalar observation for custom instrumentation. *)

type sink = event -> unit

type t
(** A probe: [null] or an active sink. *)

val null : t
(** The disabled probe; {!emit} on it is a no-op. *)

val make : sink -> t
(** An enabled probe forwarding every event to the sink. *)

val enabled : t -> bool
(** Guard event construction behind this to keep disabled call sites
    allocation-free. *)

val emit : t -> event -> unit
(** Forward to the sink ([null]: do nothing).  Safe to call without the
    {!enabled} guard — the guard only avoids allocating the event. *)

val tee : t -> t -> t
(** Forward every event to both probes; collapses to the enabled one
    (or {!null}) when either side is disabled. *)

(** In-memory collecting sink, the building block for end-of-run export
    and reports. *)
module Memory : sig
  type buffer

  val create : unit -> buffer
  val probe : buffer -> t
  (** An enabled probe appending every event to the buffer. *)

  val events : buffer -> event array
  (** Collected events in emission order. *)

  val length : buffer -> int
  val clear : buffer -> unit

  val count : buffer -> (event -> bool) -> int
  (** Number of collected events satisfying the predicate. *)
end
