(* Correctness checks applied to every benchmark job.  Each check
   returns [None] when it holds and [Some reason] when it fails; a job
   fails when any check that applies to it fails. *)

open Staleroute_wardrop
open Staleroute_dynamics
module Vec = Staleroute_util.Vec

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Flow.is_feasible] also rejects NaN and infinite entries. *)
let feasible inst f =
  if Flow.is_feasible inst f then None
  else Some "final flow is infeasible or not finite"

let potential inst f ~final_potential =
  let phi = Potential.phi inst f in
  if same_float phi final_potential then None
  else
    Some
      (Printf.sprintf "final_potential %h is not Potential.phi %h"
         final_potential phi)

let identical ~what a b =
  let n = Vec.dim a in
  if n <> Vec.dim b then
    Some (Printf.sprintf "%s: dimension %d <> %d" what n (Vec.dim b))
  else
    let rec scan i =
      if i = n then None
      else if same_float (Vec.get a i) (Vec.get b i) then scan (i + 1)
      else Some (Printf.sprintf "%s: path %d differs" what i)
    in
    scan 0

(* Lemma 4: under an alpha-smooth policy and T <= T*, every phase has
   dPhi <= V/2.  The slack covers float rounding in Phi. *)
let lemma4 (records : Driver.phase_record array) =
  Array.find_map
    (fun (r : Driver.phase_record) ->
      let slack = 1e-9 *. Float.max 1. (Float.abs r.start_potential) in
      if r.delta_phi <= (0.5 *. r.virtual_gain) +. slack then None
      else
        Some
          (Printf.sprintf "Lemma 4 fails at phase %d: dPhi %g > V/2 %g"
             r.index r.delta_phi (0.5 *. r.virtual_gain)))
    records

(* No flow has a potential below the Frank-Wolfe lower bound. *)
let above_reference ~phi_final (fw : Frank_wolfe.result) =
  if phi_final >= fw.objective -. fw.gap then None
  else
    Some
      (Printf.sprintf "final Phi %.17g is below the FW bound %.17g" phi_final
         (fw.objective -. fw.gap))

let result ~lemma4:with_lemma4 (r : Driver.result) =
  List.filter_map Fun.id
    [
      feasible r.final_instance r.final_flow;
      potential r.final_instance r.final_flow
        ~final_potential:r.final_potential;
      (if with_lemma4 then lemma4 r.records else None);
    ]
