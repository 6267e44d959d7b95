(* Braess's paradox as a road-traffic scenario, with adaptive drivers.

   A city adds a zero-latency shortcut between two arterials.  Selfish
   drivers all divert through it, raising everyone's commute from 1.5 to
   2.0 (price of anarchy 4/3).  We compute both assignments exactly and
   then let drivers adapt with a smooth policy under stale information:
   they converge to the bad equilibrium, as the theory predicts.

     dune exec examples/braess_traffic.exe *)

open Staleroute_graph
open Staleroute_wardrop
open Staleroute_dynamics
module Latency = Staleroute_latency.Latency
module Table = Staleroute_util.Table

let braess ~with_bridge =
  let edges =
    if with_bridge then [ (0, 1); (0, 2); (1, 3); (2, 3); (1, 2) ]
    else [ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  let graph = Digraph.create ~nodes:4 ~edges in
  let latencies =
    if with_bridge then
      [|
        Latency.linear 1.; Latency.const 1.; Latency.const 1.;
        Latency.linear 1.; Latency.const 0.;
      |]
    else
      [|
        Latency.linear 1.; Latency.const 1.; Latency.const 1.;
        Latency.linear 1.;
      |]
  in
  Instance.create ~graph ~latencies
    ~commodities:[ Commodity.single ~src:0 ~dst:3 ]
    ()

let report name inst =
  let eq = Frank_wolfe.equilibrium inst in
  let cost = Social.cost inst eq.Frank_wolfe.flow in
  let poa =
    Social.price_of_anarchy_of inst ~equilibrium:eq
      ~optimum:(Social.optimum inst)
  in
  Format.printf "%-16s equilibrium cost %.4f, price of anarchy %.4f@." name
    cost poa;
  cost

let () =
  Format.printf "== Braess's paradox ==@.";
  let without = report "without bridge:" (braess ~with_bridge:false) in
  let inst = braess ~with_bridge:true in
  let with_bridge = report "with bridge:" inst in
  Format.printf
    "Adding a free road made every commute worse: %.2f -> %.2f.@.@." without
    with_bridge;

  Format.printf
    "== Drivers adapting with stale traffic reports (replicator, T = T*) \
     ==@.";
  let policy = Policy.replicator inst in
  let t_star = Option.get (Policy.safe_update_period inst policy) in
  let config =
    {
      Driver.policy;
      staleness = Driver.Stale t_star;
      phases = 600;
      steps_per_phase = 10;
      scheme = Integrator.Rk4;
    }
  in
  let result = Driver.run inst config ~init:(Flow.uniform inst) in
  let table =
    Table.create ~title:"Route shares over time (phase starts)"
      ~columns:[ "phase"; "upper s-v-t"; "lower s-w-t"; "bridge s-v-w-t" ]
  in
  (* Path order in the instance: 0-[0,2]->3 upper, 0-[0,4,3]->3 bridge,
     0-[1,3]->3 lower; identify by inspection of edge ids. *)
  let share_of_path flow p = Staleroute_util.Vec.get flow p in
  let upper, bridge, lower =
    let find pred =
      let found = ref (-1) in
      for p = 0 to Instance.path_count inst - 1 do
        if pred (Instance.path_edges inst p) then found := p
      done;
      !found
    in
    ( find (fun e -> e = [| 0; 2 |]),
      find (fun e -> e = [| 0; 4; 3 |]),
      find (fun e -> e = [| 1; 3 |]) )
  in
  Array.iter
    (fun r ->
      if r.Driver.index mod 100 = 0 then
        Table.add_row table
          [
            Table.cell_int r.Driver.index;
            Table.cell_float (share_of_path r.Driver.start_flow upper);
            Table.cell_float (share_of_path r.Driver.start_flow lower);
            Table.cell_float (share_of_path r.Driver.start_flow bridge);
          ])
    result.Driver.records;
  Table.add_row table
    [
      "final";
      Table.cell_float (share_of_path result.Driver.final_flow upper);
      Table.cell_float (share_of_path result.Driver.final_flow lower);
      Table.cell_float (share_of_path result.Driver.final_flow bridge);
    ];
  Table.print table;
  Format.printf
    "All traffic drifts onto the bridge route; average commute %.4f (the \
     inefficient equilibrium), even though every driver acted on reports \
     up to %.3f time units old.@."
    (Social.cost inst result.Driver.final_flow)
    t_star
