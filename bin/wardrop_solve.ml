(* wardrop_solve: compute the Wardrop equilibrium, the system optimum
   and the price of anarchy of a built-in topology with the reference
   solver (pairwise path equilibration, Frank_wolfe by its historical
   name). *)

open Cmdliner
open Staleroute_wardrop
module Table = Staleroute_util.Table

let flow_table inst title flow =
  let pl = Flow.path_latencies inst flow in
  let table =
    Table.create ~title ~columns:[ "path"; "flow"; "latency" ]
  in
  for p = 0 to Instance.path_count inst - 1 do
    Table.add_row table
      [
        Format.asprintf "%a" Staleroute_graph.Path.pp (Instance.path inst p);
        Table.cell_float ~decimals:6 (Staleroute_util.Vec.get flow p);
        Table.cell_float ~decimals:6 pl.(p);
      ]
  done;
  table

let main topology tol max_iter show_optimum =
  match Topologies.parse topology with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok inst ->
      Format.printf "instance: %a@." Instance.pp inst;
      let eq = Frank_wolfe.equilibrium ~tol ~max_iter inst in
      Table.print (flow_table inst "Wardrop equilibrium" eq.Frank_wolfe.flow);
      Printf.printf "potential PHI*   : %.8g\n" eq.Frank_wolfe.objective;
      Printf.printf "duality gap      : %.3g after %d sweeps\n"
        eq.Frank_wolfe.gap eq.Frank_wolfe.iterations;
      Printf.printf "wardrop gap      : %.3g\n"
        (Equilibrium.wardrop_gap inst eq.Frank_wolfe.flow);
      Printf.printf "social cost C(eq): %.8g\n"
        (Social.cost inst eq.Frank_wolfe.flow);
      if show_optimum then begin
        let opt = Social.optimum ~tol ~max_iter inst in
        Table.print (flow_table inst "System optimum" opt.Frank_wolfe.flow);
        Printf.printf "optimal cost     : %.8g\n" opt.Frank_wolfe.objective;
        Printf.printf "price of anarchy : %.6g\n"
          (Social.price_of_anarchy_of inst ~equilibrium:eq ~optimum:opt)
      end

let cmd =
  let topology =
    Arg.(
      value
      & opt string "braess"
      & info [ "t"; "topology" ] ~docv:"SPEC" ~doc:Topologies.doc)
  in
  let tol =
    Arg.(value & opt float 1e-8 & info [ "tol" ] ~docv:"TOL"
         ~doc:"Duality-gap tolerance of the reference solver.")
  in
  let max_iter =
    Arg.(value & opt int 10_000 & info [ "max-iter" ] ~docv:"N"
         ~doc:"Sweep cap of the reference solver.")
  in
  let show_optimum =
    Arg.(value & flag & info [ "optimum"; "poa" ]
         ~doc:"Also compute the system optimum and the price of anarchy.")
  in
  let term = Term.(const main $ topology $ tol $ max_iter $ show_optimum) in
  Cmd.v
    (Cmd.info "wardrop_solve" ~version:"1.0.0"
       ~doc:"Solve Wardrop routing games (equilibrium, optimum, PoA)")
    term

let () = exit (Cmd.eval cmd)
