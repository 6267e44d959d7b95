open Staleroute_wardrop
module Vec = Staleroute_util.Vec

type t =
  | Uniform
  | Proportional
  | Logit of float
  | Mixed of float
  | Custom of custom

and custom = {
  name : string;
  prob :
    Instance.t ->
    commodity:int ->
    flow:Flow.t ->
    latencies:float array ->
    from_:int ->
    int ->
    float;
}

let distribution rule inst ~commodity ~flow ~latencies ~from_ =
  let ps = Instance.paths_of_commodity inst commodity in
  let m = Array.length ps in
  match rule with
  | Uniform -> Array.make m (1. /. float_of_int m)
  | Proportional ->
      let r = Instance.demand inst commodity in
      Array.map (fun q -> Vec.get flow q /. r) ps
  | Logit c ->
      (* Softmax with the max subtracted for numerical stability. *)
      let scores = Array.map (fun q -> -.c *. latencies.(q)) ps in
      let top = Array.fold_left Float.max neg_infinity scores in
      let weights = Array.map (fun s -> exp (s -. top)) scores in
      let total = Staleroute_util.Numerics.kahan_sum weights in
      Array.map (fun w -> w /. total) weights
  | Mixed gamma ->
      if gamma < 0. || gamma > 1. then
        invalid_arg "Sampling.Mixed: gamma outside [0,1]";
      let r = Instance.demand inst commodity in
      let unif = gamma /. float_of_int m in
      Array.map (fun q -> unif +. ((1. -. gamma) *. Vec.get flow q /. r)) ps
  | Custom { prob; _ } ->
      Array.map (fun q -> prob inst ~commodity ~flow ~latencies ~from_ q) ps

let distribution_into rule inst ~commodity ~flow ~latencies ~from_ ~dst =
  let ps = Instance.paths_of_commodity inst commodity in
  let m = Array.length ps in
  if Array.length dst < m then
    invalid_arg "Sampling.distribution_into: buffer too small";
  (match rule with
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
      let top = ref neg_infinity in
      for j = 0 to m - 1 do
        let s = -.c *. latencies.(ps.(j)) in
        dst.(j) <- s;
        if s > !top then top := s
      done;
      let top = !top in
      (* Same compensated sum as [Numerics.kahan_sum] so both entry
         points normalise by the identical total. *)
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
  | Custom { prob; _ } ->
      for j = 0 to m - 1 do
        dst.(j) <- prob inst ~commodity ~flow ~latencies ~from_ ps.(j)
      done)

let origin_independent = function
  | Uniform | Proportional | Logit _ | Mixed _ -> true
  | Custom _ -> false

let positive = function
  | Uniform | Logit _ -> true
  | Mixed gamma -> gamma > 0.
  | Proportional ->
      (* Positive as long as the posted flow is interior; boundary
         points with f_Q = 0 are absorbing for the replicator. *)
      true
  | Custom _ -> false

let name = function
  | Uniform -> "uniform"
  | Proportional -> "proportional"
  | Logit c -> Printf.sprintf "logit(%g)" c
  | Mixed gamma -> Printf.sprintf "mixed(%g)" gamma
  | Custom { name; _ } -> name

let pp ppf t = Format.pp_print_string ppf (name t)
