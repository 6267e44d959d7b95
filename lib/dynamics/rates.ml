open Staleroute_wardrop
module Vec = Staleroute_util.Vec

let migration_rate inst policy ~board ~flow ~from_ q =
  if Instance.commodity_of_path inst from_ <> Instance.commodity_of_path inst q
  then 0.
  else begin
    let ci = Instance.commodity_of_path inst from_ in
    let dist =
      Sampling.distribution policy.Policy.sampling inst ~commodity:ci
        ~flow:board.Bulletin_board.flow
        ~latencies:board.Bulletin_board.path_latencies
    in
    let local_q = Instance.local_index_of_path inst q in
    let mu =
      Migration.prob policy.Policy.migration
        ~ell_p:board.Bulletin_board.path_latencies.(from_)
        ~ell_q:board.Bulletin_board.path_latencies.(q)
    in
    Vec.get flow from_ *. dist.(local_q) *. mu
  end

let flow_derivative inst policy ~board flow =
  let n = Instance.path_count inst in
  let deriv = Vec.create n 0. in
  let lat = board.Bulletin_board.path_latencies in
  let bflow = board.Bulletin_board.flow in
  let mu = Migration.prob policy.Policy.migration in
  for ci = 0 to Instance.commodity_count inst - 1 do
    let ps = Instance.paths_of_commodity inst ci in
    let m = Array.length ps in
    (* σ does not depend on the origin: one distribution per
       commodity, shared by every ordered pair. *)
    let sigma =
      Sampling.distribution policy.Policy.sampling inst ~commodity:ci
        ~flow:bflow ~latencies:lat
    in
    for a = 0 to m - 1 do
      let p = ps.(a) in
      for b = 0 to m - 1 do
        if a <> b then begin
          let q = ps.(b) in
          (* Outflow P -> Q and inflow Q -> P for this ordered pair. *)
          let out = Vec.get flow p *. sigma.(b) *. mu ~ell_p:lat.(p) ~ell_q:lat.(q) in
          let inc = Vec.get flow q *. sigma.(a) *. mu ~ell_p:lat.(q) ~ell_q:lat.(p) in
          Vec.set deriv p (Vec.get deriv p +. inc -. out)
        end
      done
    done
  done;
  deriv
