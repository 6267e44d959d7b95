(** Latency functions [ℓ_e : [0,1] -> R≥0].

    The paper requires continuous, non-decreasing latency functions with
    bounded first derivative on the whole range.  This module provides a
    small closed algebra of such functions with {e exact} evaluation,
    {e closed-form} integrals [∫₀^x ℓ(u) du] (so the
    Beckmann–McGuire–Winsten potential has no quadrature error) and an
    upper bound [β] on the slope over [0, 1] — the constant that
    controls the safe bulletin-board period [T ≤ 1/(4 D α β)].

    All constructors validate that the resulting function is
    non-negative and non-decreasing on [0, 1], and that every parameter
    is finite, and raise [Invalid_argument] otherwise.  So every
    latency is finite at load 0 and its integral there is ±0. *)

type t

(** {1 Constructors} *)

val const : float -> t
(** Constant latency [c >= 0]. *)

val affine : slope:float -> intercept:float -> t
(** [affine ~slope:a ~intercept:b] is [x -> a*x + b] with [a, b >= 0]. *)

val linear : float -> t
(** [linear a = affine ~slope:a ~intercept:0.]. *)

val monomial : coeff:float -> degree:int -> t
(** [coeff * x^degree] with [coeff >= 0], [degree >= 1]. *)

val poly : float array -> t
(** [poly [|c0; c1; ...|]] is [x -> Σ ci x^i]; all coefficients must be
    non-negative (a sufficient condition for monotonicity). *)

val relu : slope:float -> knee:float -> t
(** [x -> max 0 (slope * (x - knee))] with [slope >= 0] and
    [knee ∈ [0,1]] — the §3.2 oscillation example uses
    [relu ~slope:beta ~knee:0.5]. *)

val pwl : (float * float) list -> t
(** Piecewise-linear interpolation through breakpoints
    [(x0,y0); ...; (xn,yn)] with [x0 = 0], strictly increasing [xi]
    covering [\[0, 1\]], and non-decreasing non-negative [yi]. *)

val mm1 : capacity:float -> t
(** Queueing delay [x -> 1 / (capacity - x)] with [capacity > 1] so the
    slope stays bounded on [0, 1] (the paper's bounded-derivative
    assumption; a genuine M/M/1 with capacity [<= 1] violates it). *)

val scale : float -> t -> t
(** [scale s f] is [x -> s * f x], [s >= 0]. *)

val shift : float -> t -> t
(** [shift c f] is [x -> c + f x], [c >= 0]. *)

val add : t -> t -> t
(** Pointwise sum. *)

(** {1 Observations} *)

val eval : t -> float -> float
(** [eval f x] for [x ∈ [0,1]] (values slightly outside are clamped to
    the range — the dynamics can overshoot by a rounding error). *)

val integral : t -> float -> float
(** [integral f x = ∫₀^x f(u) du], closed form. *)

val deriv : t -> float -> float
(** [deriv f x] is the derivative at [x ∈ [0,1]] (the right derivative
    at kinks of piecewise functions). *)

val slope_bound : t -> float
(** Upper bound on [f'] over [0, 1] (tight for every primitive). *)

val max_value : t -> float
(** [eval f 1.] — the largest latency the edge can show (functions are
    non-decreasing). *)

val elasticity_bound : t -> float
(** Upper bound on the elasticity [d = sup_x x·f'(x) / f(x)] over
    [(0, 1]] — the parameter that replaces the slope bound in the
    fast-convergence follow-up work the paper's conclusion points to
    (Fischer, Räcke & Vöcking, STOC 2006).  For a monomial of degree
    [d] the bound is exactly [d]; for a polynomial it is the top
    degree; [infinity] when the function can be 0 at a point of
    positive slope (e.g. {!relu}). *)

(** {1 Batch evaluation over an edge list}

    Loops over many edges, for callers in other libraries: there, every
    call to {!eval} or {!integral} boxes the float it passes and the one
    it returns.  [ls] holds one latency per edge id and [edges] lists
    edge ids (an edge-indexed array is read at each listed id).  Each
    term has the bits of the corresponding {!eval}/{!integral} call,
    and sums run in list order starting from [+0.]; the affine family
    allocates nothing. *)

val integral_sum : t array -> edges:int array -> float array -> float
(** [integral_sum ls ~edges loads] is
    [Σ_{e ∈ edges} integral ls.(e) loads.(e)]. *)

val phase_sums :
  t array ->
  edges:int array ->
  hat:float array ->
  load:float array ->
  float array ->
  unit
(** [phase_sums ls ~edges ~hat ~load dst] sets [dst.(0)] to
    [Σ_e integral ls.(e) load.(e)] and [dst.(1)] to
    [Σ_e eval ls.(e) hat.(e) *. (load.(e) -. hat.(e))], both over
    [edges] — Φ at [load] and the virtual gain from [hat] to [load]. *)

val eval_into :
  t array -> edges:int array -> count:int -> float array -> float array -> unit
(** [eval_into ls ~edges ~count src dst] sets
    [dst.(e) <- eval ls.(e) src.(e)] for the first [count] ids of
    [edges]; [src] and [dst] may be the same array. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Parseable syntax}

    A stable, parenthesised prefix syntax used by the instance file
    format:

    {v
    (const 1.5)            (affine 2 0.5)        (linear 3)
    (monomial 2 4)         (poly 1 0 3)          (relu 4 0.5)
    (pwl 0 0  0.5 1  1 1)  (mm1 2)
    (scale 2 (linear 1))   (shift 0.5 (mm1 2))
    (sum (linear 1) (const 0.2))
    v} *)

val to_spec : t -> string
(** Render in the parseable syntax ([of_spec (to_spec f)] recovers an
    identical function). *)

val of_spec : string -> (t, string) result
(** Parse the syntax above; returns [Error message] on malformed input
    or on parameters rejected by the constructors. *)
