(* instance_tool: inspect, validate, solve and export routing-game
   instance files (and built-in topologies).

     instance_tool show  -t file:net.inst     structure + derived constants
     instance_tool solve -t braess            equilibrium + optimum + PoA
     instance_tool dot   -t grid:3x3          Graphviz DOT on stdout
     instance_tool dump  -t needle:8          instance file on stdout *)

open Cmdliner
open Staleroute_wardrop
open Staleroute_graph
module Table = Staleroute_util.Table

let with_instance topology k =
  match Topologies.parse topology with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok inst -> k inst

let show inst =
  let g = Instance.graph inst in
  Format.printf "%a@." Instance.pp inst;
  Printf.printf "acyclic          : %b\n" (Algo.is_acyclic g);
  Printf.printf "elastic period   : %g\n"
    (Staleroute_dynamics.Policy.elastic_update_period inst);
  (match
     Staleroute_dynamics.Policy.safe_update_period inst
       (Staleroute_dynamics.Policy.uniform_linear inst)
   with
  | Some t -> Printf.printf "T* (unif/linear) : %g\n" t
  | None -> ());
  let table =
    Table.create ~title:"Edges" ~columns:[ "id"; "from"; "to"; "latency" ]
  in
  Array.iter
    (fun e ->
      Table.add_row table
        [
          Table.cell_int e.Digraph.id;
          Table.cell_int e.Digraph.src;
          Table.cell_int e.Digraph.dst;
          Staleroute_latency.Latency.to_spec (Instance.latency inst e.Digraph.id);
        ])
    (Digraph.edges g);
  Table.print table;
  let commodities =
    Table.create ~title:"Commodities"
      ~columns:[ "#"; "src"; "dst"; "demand"; "paths" ]
  in
  for ci = 0 to Instance.commodity_count inst - 1 do
    let c = Instance.commodity inst ci in
    Table.add_row commodities
      [
        Table.cell_int ci;
        Table.cell_int c.Commodity.src;
        Table.cell_int c.Commodity.dst;
        Table.cell_float ~decimals:4 c.Commodity.demand;
        Table.cell_int (Array.length (Instance.paths_of_commodity inst ci));
      ]
  done;
  Table.print commodities

let solve inst =
  let eq = Frank_wolfe.equilibrium inst in
  let pg = Descent.equilibrium inst in
  Printf.printf "PHI* (path equil.)      : %.8g (gap %.2g, %d sweeps)\n"
    eq.Frank_wolfe.objective eq.Frank_wolfe.gap eq.Frank_wolfe.iterations;
  Printf.printf "PHI* (proj. gradient)   : %.8g (%d iters)\n"
    pg.Descent.objective pg.Descent.iterations;
  Printf.printf "social cost (wardrop)   : %.8g\n"
    (Social.cost inst eq.Frank_wolfe.flow);
  let opt = Social.optimum inst in
  Printf.printf "social cost (optimum)   : %.8g\n" opt.Frank_wolfe.objective;
  Printf.printf "price of anarchy        : %.6g\n"
    (Social.price_of_anarchy_of inst ~equilibrium:eq ~optimum:opt)

let dot inst =
  print_string
    (Dot.to_dot
       ~edge_label:(fun e ->
         Staleroute_latency.Latency.to_string
           (Instance.latency inst e.Digraph.id))
       (Instance.graph inst))

let dump inst = print_string (Instance_format.to_string inst)

let main action topology =
  let run =
    match action with
    | "show" -> show
    | "solve" -> solve
    | "dot" -> dot
    | "dump" -> dump
    | other ->
        Printf.eprintf "unknown action %S (show|solve|dot|dump)\n" other;
        exit 2
  in
  with_instance topology run

let cmd =
  let action =
    Arg.(
      value
      & pos 0 string "show"
      & info [] ~docv:"ACTION" ~doc:"show, solve, dot or dump.")
  in
  let topology =
    Arg.(
      value
      & opt string "braess"
      & info [ "t"; "topology" ] ~docv:"SPEC" ~doc:Topologies.doc)
  in
  Cmd.v
    (Cmd.info "instance_tool" ~version:"1.0.0"
       ~doc:"Inspect, validate, solve and export routing-game instances")
    Term.(const main $ action $ topology)

let () = exit (Cmd.eval cmd)
