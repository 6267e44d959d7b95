open Staleroute_dynamics
module Table = Staleroute_util.Table

let rate inst policy staleness ~phases =
  let result =
    Common.run inst policy staleness ~phases ~steps_per_phase:10
      ~init:(Common.biased_start inst) ()
  in
  let gap = Convergence.potential_gap result in
  (* Fit on the portion that is clearly above float noise. *)
  let fitting =
    Array.of_list
      (List.filter (fun (_, y) -> y > 1e-12) (Array.to_list gap))
  in
  (Convergence.fit_exponential_rate fitting,
   Convergence.time_to_threshold gap ~threshold:1e-3)

let tables ?(quick = false) () =
  let table =
    Table.create
      ~title:
        "E13  Extension: fitted exponential rate of Phi(t) - Phi* \
         (fresh vs stale T=T*)"
      ~columns:
        [
          "instance"; "policy"; "rate (fresh)"; "rate (stale T*)";
          "slowdown"; "t to 1e-3 (stale)";
        ]
  in
  let instances =
    if quick then [ ("braess", Common.braess ()) ]
    else
      [
        ("braess", Common.braess ());
        ("parallel-8", Common.parallel 8);
        ("grid-3x3", Common.grid33 ());
      ]
  in
  List.iter
    (fun (iname, inst) ->
      List.iter
        (fun (pname, policy) ->
          let t_star = Common.safe_period inst policy in
          (* Compare over an equal virtual-time horizon. *)
          let horizon = if quick then 30. else 120. in
          let fresh_phases = int_of_float horizon in
          let stale_phases =
            int_of_float (Float.ceil (horizon /. t_star))
          in
          let r_fresh, _ =
            rate inst policy Driver.Fresh ~phases:fresh_phases
          in
          let r_stale, settle =
            rate inst policy (Driver.Stale t_star) ~phases:stale_phases
          in
          let cell = function
            | Some r -> Table.cell_float ~decimals:4 r
            | None -> "-"
          in
          Table.add_row table
            [
              iname;
              pname;
              cell r_fresh;
              cell r_stale;
              (match (r_fresh, r_stale) with
              | Some a, Some b when b > 0. ->
                  Table.cell_float ~decimals:2 (a /. b)
              | _ -> "-");
              (match settle with
              | Some t -> Table.cell_float ~decimals:1 t
              | None -> Printf.sprintf ">%.0f" horizon);
            ])
        [
          ("uniform/linear", Policy.uniform_linear inst);
          ("replicator", Policy.replicator inst);
          ("logit(5)/linear", Policy.best_response_approx inst ~c:5.);
        ])
    instances;
  [ table ]
