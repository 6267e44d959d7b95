type t =
  | Better_response
  | Linear of { ell_max : float }
  | Scaled_linear of { alpha : float }
  | Relative of { scale : float }

let prob t ~ell_p ~ell_q =
  match t with
  | Better_response -> if ell_p > ell_q then 1. else 0.
  | Linear { ell_max } ->
      if ell_p > ell_q then
        Staleroute_util.Numerics.clamp ~lo:0. ~hi:1.
          ((ell_p -. ell_q) /. ell_max)
      else 0.
  | Scaled_linear { alpha } ->
      if ell_p > ell_q then
        Staleroute_util.Numerics.clamp ~lo:0. ~hi:1.
          (alpha *. (ell_p -. ell_q))
      else 0.
  | Relative { scale } ->
      if ell_p > ell_q && ell_p > 0. then
        Staleroute_util.Numerics.clamp ~lo:0. ~hi:1.
          (scale *. (ell_p -. ell_q) /. ell_p)
      else 0.

let alpha = function
  | Better_response -> None
  | Linear { ell_max } -> Some (1. /. ell_max)
  | Scaled_linear { alpha } -> Some alpha
  | Relative _ -> None

let check_smoothness t ~samples ~ell_max =
  match alpha t with
  | None -> false
  | Some a ->
      let grid = Staleroute_util.Numerics.linspace 0. ell_max (max 2 samples) in
      Array.for_all
        (fun ell_p ->
          Array.for_all
            (fun ell_q ->
              ell_q > ell_p
              || prob t ~ell_p ~ell_q <= (a *. (ell_p -. ell_q)) +. 1e-12)
            grid)
        grid

let name = function
  | Better_response -> "better-response"
  | Linear { ell_max } -> Printf.sprintf "linear(lmax=%g)" ell_max
  | Scaled_linear { alpha } -> Printf.sprintf "scaled-linear(alpha=%g)" alpha
  | Relative { scale } -> Printf.sprintf "relative(%g)" scale

let pp ppf t = Format.pp_print_string ppf (name t)
