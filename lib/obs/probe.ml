type event =
  | Phase_start of { index : int; time : float; potential : float }
  | Phase_end of {
      index : int;
      time : float;
      potential : float;
      virtual_gain : float;
      delta_phi : float;
    }
  | Board_repost of { time : float }
  | Kernel_rebuild of { time : float }
  | Step_batch of { time : float; scheme : string; steps : int; tau : float }
  | Agent_wake of {
      time : float;
      agent : int;
      from_path : int;
      to_path : int;
      migrated : bool;
    }
  | Path_growth of {
      time : float;
      index : int;
      commodity : int;
      cost : float;
      incumbent : float;
      path_count : int;
    }
  | Fault_injected of { time : float; index : int; kind : string; arg : float }
  | Edge_down of { time : float; index : int; edge : int }
  | Edge_up of { time : float; index : int; edge : int }
  | Guard_trip of {
      time : float;
      index : int;
      action : string;
      worst : float;
    }
  | Note of { time : float; name : string; value : float }

type sink = event -> unit

type t = { emit : sink; on : bool }

let null = { emit = ignore; on = false }
let make sink = { emit = sink; on = true }
let enabled t = t.on
let emit t ev = if t.on then t.emit ev

let tee a b =
  if not a.on then b
  else if not b.on then a
  else
    make (fun ev ->
        a.emit ev;
        b.emit ev)

module Memory = struct
  type buffer = { mutable events : event list; mutable n : int }

  let create () = { events = []; n = 0 }

  let probe buf =
    make (fun ev ->
        buf.events <- ev :: buf.events;
        buf.n <- buf.n + 1)

  let events buf = Array.of_list (List.rev buf.events)
  let length buf = buf.n

  let clear buf =
    buf.events <- [];
    buf.n <- 0

  let count buf pred =
    List.fold_left (fun acc ev -> if pred ev then acc + 1 else acc) 0 buf.events
end
