open Staleroute_wardrop
module Vec = Staleroute_util.Vec
module Probe = Staleroute_obs.Probe

type scheme = Euler | Rk4

let scheme_of_string = function
  | "euler" -> Some Euler
  | "rk4" -> Some Rk4
  | _ -> None

let scheme_name = function Euler -> "euler" | Rk4 -> "rk4"

let stage_evals = function Euler -> 1 | Rk4 -> 4

let integrate_phase_into ?(probe = Probe.null) ?(t0 = 0.) scheme inst ~pool
    ~deriv_into ~f ~tau ~steps =
  if tau < 0. then invalid_arg "Integrator.integrate_phase: negative tau";
  if steps < 1 then invalid_arg "Integrator.integrate_phase: steps < 1";
  (* One event per batch, never per step: the per-step loop below stays
     allocation-free whether or not the probe is enabled. *)
  if Probe.enabled probe then
    Probe.emit probe
      (Probe.Step_batch { time = t0; scheme = scheme_name scheme; steps; tau });
  if tau > 0. then begin
    let h = tau /. float_of_int steps in
    match scheme with
    | Euler ->
        Vec.Pool.with_vec pool (fun k ->
            for _ = 1 to steps do
              deriv_into f ~dst:k;
              Vec.axpy ~alpha:h ~x:k ~y:f;
              Flow.project_ inst f
            done)
    | Rk4 ->
        let k1 = Vec.Pool.acquire pool in
        let k2 = Vec.Pool.acquire pool in
        let k3 = Vec.Pool.acquire pool in
        let k4 = Vec.Pool.acquire pool in
        let tmp = Vec.Pool.acquire pool in
        (* Stage weights are bound outside the loop so each float is
           boxed once per phase, not once per step. *)
        let h2 = h /. 2. and h3 = h /. 3. and h6 = h /. 6. in
        Fun.protect
          ~finally:(fun () ->
            Vec.Pool.release pool k1;
            Vec.Pool.release pool k2;
            Vec.Pool.release pool k3;
            Vec.Pool.release pool k4;
            Vec.Pool.release pool tmp)
          (fun () ->
            let n = Vec.dim f in
            if Vec.dim tmp <> n then
              invalid_arg "Integrator.integrate_phase: flow dimension mismatch";
            (* tmp <- f + c·k in one pass: the bits of a blit then an
               axpy. *)
            let stage c k =
              for i = 0 to n - 1 do
                Vec.unsafe_set tmp i
                  (Vec.unsafe_get f i +. (c *. Vec.unsafe_get k i))
              done
            in
            for _ = 1 to steps do
              deriv_into f ~dst:k1;
              stage h2 k1;
              deriv_into tmp ~dst:k2;
              stage h2 k2;
              deriv_into tmp ~dst:k3;
              stage h k3;
              deriv_into tmp ~dst:k4;
              (* The four closing axpys, one pass, terms in the same
                 order. *)
              for i = 0 to n - 1 do
                Vec.unsafe_set f i
                  (Vec.unsafe_get f i
                   +. (h6 *. Vec.unsafe_get k1 i)
                   +. (h3 *. Vec.unsafe_get k2 i)
                   +. (h3 *. Vec.unsafe_get k3 i)
                   +. (h6 *. Vec.unsafe_get k4 i))
              done;
              Flow.project_ inst f
            done)
  end

let integrate_phase scheme inst ~deriv ~f0 ~tau ~steps =
  let f = Vec.copy f0 in
  let pool = Vec.Pool.create ~dim:(Vec.dim f0) in
  let deriv_into g ~dst =
    let d = deriv g in
    Vec.blit ~src:d ~dst
  in
  integrate_phase_into scheme inst ~pool ~deriv_into ~f ~tau ~steps;
  f
