open Staleroute_wardrop
open Staleroute_dynamics
module Table = Staleroute_util.Table

let policy_for inst kappa =
  let alpha0 = 1. /. Instance.ell_max inst in
  Policy.make ~sampling:Sampling.Uniform
    ~migration:(Migration.Scaled_linear { alpha = kappa *. alpha0 })

let continuous_outcome inst kappa ~phases =
  let result =
    Common.run inst (policy_for inst kappa) (Driver.Stale 1.) ~phases
      ~init:(Common.biased_start inst) ()
  in
  let snapshots = Common.phase_start_flows result in
  ( Equilibrium.unsatisfied_volume inst result.Driver.final_flow ~delta:0.05,
    Convergence.is_oscillating snapshots )

(* A synchronous round moves every agent at once: the fluid ODE
   integrated by one Euler step of h = 1 on the board posted at the
   round's start. *)
let synchronous_outcome inst kappa ~phases =
  let config =
    {
      Driver.policy = policy_for inst kappa;
      staleness = Driver.Stale 1.;
      phases;
      steps_per_phase = 1;
      scheme = Integrator.Euler;
    }
  in
  let result = Driver.run inst config ~init:(Common.biased_start inst) in
  ( Equilibrium.unsatisfied_volume inst result.Driver.final_flow
      ~delta:0.05,
    Convergence.is_oscillating (Common.phase_start_flows result) )

let tables ?(quick = false) () =
  let phases = if quick then 150 else 600 in
  let kappas = if quick then [ 1.; 4. ] else [ 0.5; 1.; 2.; 4.; 8.; 16. ] in
  let inst = Common.two_link ~beta:4. in
  let table =
    Table.create
      ~title:
        "E14  Extension: continuous (Poisson) vs synchronous rounds, \
         kappa-scaled migration, board refreshed every round"
      ~columns:
        [
          "kappa"; "cont unsat vol"; "cont oscillates?"; "sync unsat vol";
          "sync oscillates?";
        ]
  in
  List.iter
    (fun kappa ->
      let cont_vol, cont_osc = continuous_outcome inst kappa ~phases in
      let sync_vol, sync_osc = synchronous_outcome inst kappa ~phases in
      Table.add_row table
        [
          Table.cell_float ~decimals:1 kappa;
          Table.cell_sci cont_vol;
          string_of_bool cont_osc;
          Table.cell_sci sync_vol;
          string_of_bool sync_osc;
        ])
    kappas;
  [ table ]
