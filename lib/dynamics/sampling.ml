open Staleroute_wardrop
module Vec = Staleroute_util.Vec

type t = Uniform | Proportional | Logit of float | Mixed of float

let distribution_into rule inst ~commodity ~flow ~latencies ~dst =
  let ps = Instance.paths_of_commodity inst commodity in
  let m = Array.length ps in
  if Array.length dst < m then
    invalid_arg "Sampling.distribution_into: buffer too small";
  match rule with
  | Uniform ->
      (* A loop, not [Array.fill]: the polymorphic fill would box [u]. *)
      let u = 1. /. float_of_int m in
      for j = 0 to m - 1 do
        dst.(j) <- u
      done
  | Proportional ->
      let r = Instance.demand inst commodity in
      for j = 0 to m - 1 do
        dst.(j) <- Vec.unsafe_get flow (Array.unsafe_get ps j) /. r
      done
  | Logit c ->
      (* Softmax with the max subtracted for numerical stability,
         normalised by a compensated (Kahan–Babuška) sum. *)
      let top = ref neg_infinity in
      for j = 0 to m - 1 do
        let s = -.c *. latencies.(ps.(j)) in
        dst.(j) <- s;
        if s > !top then top := s
      done;
      let top = !top in
      let sum = ref 0. and c = ref 0. in
      for j = 0 to m - 1 do
        let w = exp (dst.(j) -. top) in
        dst.(j) <- w;
        let t = !sum +. w in
        if Float.abs !sum >= Float.abs w then c := !c +. (!sum -. t +. w)
        else c := !c +. (w -. t +. !sum);
        sum := t
      done;
      let total = !sum +. !c in
      for j = 0 to m - 1 do
        dst.(j) <- dst.(j) /. total
      done
  | Mixed gamma ->
      if gamma < 0. || gamma > 1. then
        invalid_arg "Sampling.Mixed: gamma outside [0,1]";
      let r = Instance.demand inst commodity in
      let unif = gamma /. float_of_int m in
      for j = 0 to m - 1 do
        dst.(j) <- unif +. ((1. -. gamma) *. Vec.unsafe_get flow (Array.unsafe_get ps j) /. r)
      done

let distribution rule inst ~commodity ~flow ~latencies =
  let dst =
    Array.make (Array.length (Instance.paths_of_commodity inst commodity)) 0.
  in
  distribution_into rule inst ~commodity ~flow ~latencies ~dst;
  dst

let positive = function
  | Uniform | Logit _ -> true
  | Mixed gamma -> gamma > 0.
  | Proportional ->
      (* Positive as long as the posted flow is interior; boundary
         points with f_Q = 0 are absorbing for the replicator. *)
      true

let name = function
  | Uniform -> "uniform"
  | Proportional -> "proportional"
  | Logit c -> Printf.sprintf "logit(%g)" c
  | Mixed gamma -> Printf.sprintf "mixed(%g)" gamma

let pp ppf t = Format.pp_print_string ppf (name t)
