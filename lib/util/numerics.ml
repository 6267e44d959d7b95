let kahan_sum xs =
  let sum = ref 0. and c = ref 0. in
  Array.iter
    (fun x ->
      let t = !sum +. x in
      if Float.abs !sum >= Float.abs x then c := !c +. (!sum -. t +. x)
      else c := !c +. (x -. t +. !sum);
      sum := t)
    xs;
  !sum +. !c

let sum_by f xs = kahan_sum (Array.map f xs)

let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Numerics.clamp: lo > hi";
  Float.min hi (Float.max lo x)

let linspace a b n =
  if n < 2 then invalid_arg "Numerics.linspace: need n >= 2";
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. h))
