(** Numerical helpers: compensated summation, float comparisons,
    clamping and evenly spaced grids. *)

val kahan_sum : float array -> float
(** Compensated (Kahan–Babuška) summation. *)

val sum_by : ('a -> float) -> 'a array -> float
(** Compensated sum of [f x] over the array. *)

val approx_equal : ?rtol:float -> ?atol:float -> float -> float -> bool
(** [approx_equal a b] holds when [|a - b| <= atol + rtol * max |a| |b|].
    Defaults: [rtol = 1e-9], [atol = 1e-12]. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [\[lo, hi\]].  Requires [lo <= hi]. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive. *)
