(* The epoch is the first read, so values stay small enough to keep
   full microsecond precision in a float.  [last] makes the reading
   nondecreasing under system-clock steps; spans are recorded at phase
   granularity, so the boxed-float Atomic is nowhere near a hot path. *)

let epoch = Unix.gettimeofday ()
let last = Atomic.make 0.

let rec now_ns () =
  let raw = (Unix.gettimeofday () -. epoch) *. 1e9 in
  let prev = Atomic.get last in
  if raw <= prev then prev
  else if Atomic.compare_and_set last prev raw then raw
  else now_ns ()
