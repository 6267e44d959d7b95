type t =
  | Const of float
  | Affine of { slope : float; intercept : float }
  | Monomial of { coeff : float; degree : int }
  | Poly of float array
  | Relu of { slope : float; knee : float }
  | Pwl of pwl
  | Mm1 of { capacity : float }
  | Scale of float * t
  | Shift of float * t
  | Sum of t * t

and pwl = {
  xs : float array;
  ys : float array;
  cum : float array;  (* cum.(i) = ∫_0^{xs.(i)} *)
}

(* Parameters must also be finite: then every family has a finite
   value and a ±0 integral at load 0, which is what lets Φ and V skip
   edges no path uses (Potential.phi_of_edge_flows). *)
let nonneg name v =
  if not (v >= 0. && v < infinity) then
    invalid_arg
      (Printf.sprintf "Latency.%s: negative or non-finite argument" name)

let const c =
  nonneg "const" c;
  Const c

let affine ~slope ~intercept =
  nonneg "affine" slope;
  nonneg "affine" intercept;
  Affine { slope; intercept }

let linear slope = affine ~slope ~intercept:0.

let monomial ~coeff ~degree =
  nonneg "monomial" coeff;
  if degree < 1 then invalid_arg "Latency.monomial: degree must be >= 1";
  Monomial { coeff; degree }

let poly coeffs =
  if Array.length coeffs = 0 then invalid_arg "Latency.poly: no coefficients";
  Array.iter (nonneg "poly") coeffs;
  Poly (Array.copy coeffs)

let relu ~slope ~knee =
  nonneg "relu" slope;
  if knee < 0. || knee > 1. then
    invalid_arg "Latency.relu: knee outside [0,1]";
  Relu { slope; knee }

let pwl points =
  let n = List.length points in
  if n < 2 then invalid_arg "Latency.pwl: need at least two breakpoints";
  let xs = Array.make n 0. and ys = Array.make n 0. in
  List.iteri
    (fun i (x, y) ->
      xs.(i) <- x;
      ys.(i) <- y)
    points;
  if xs.(0) <> 0. then invalid_arg "Latency.pwl: first breakpoint must be x=0";
  if xs.(n - 1) < 1. then invalid_arg "Latency.pwl: breakpoints must cover [0,1]";
  if xs.(n - 1) = infinity then
    invalid_arg "Latency.pwl: non-finite breakpoint";
  for i = 0 to n - 2 do
    if xs.(i + 1) <= xs.(i) then
      invalid_arg "Latency.pwl: x-coordinates must be strictly increasing";
    if ys.(i + 1) < ys.(i) then
      invalid_arg "Latency.pwl: function must be non-decreasing"
  done;
  Array.iter (nonneg "pwl") ys;
  let cum = Array.make n 0. in
  for i = 1 to n - 1 do
    (* Trapezoid: exact for a linear piece. *)
    cum.(i) <-
      cum.(i - 1)
      +. ((xs.(i) -. xs.(i - 1)) *. (ys.(i) +. ys.(i - 1)) /. 2.)
  done;
  Pwl { xs; ys; cum }

let mm1 ~capacity =
  if not (capacity > 1. && capacity < infinity) then
    invalid_arg "Latency.mm1: capacity must be finite and exceed 1";
  Mm1 { capacity }

let scale s f =
  nonneg "scale" s;
  Scale (s, f)

let shift c f =
  nonneg "shift" c;
  Shift (c, f)

let add a b = Sum (a, b)

(* [Numerics.clamp ~lo:0. ~hi:1.] written out so that it inlines:
   NaN stays NaN, and -0. and every negative load go to +0.  A call
   into another library boxes its float argument and result. *)
let[@inline] clamp01 x =
  if x > 0. then if x > 1. then 1. else x else if x <= 0. then 0. else x

(* The PWL segment holding [x < xs.(n-1)]: the last [i] with
   [xs.(i) <= x] (0 when there is none, e.g. for NaN), by binary
   search.  [eval_raw], [integral_raw] and [deriv_raw] share it. *)
let segment xs x =
  let lo = ref 0 and hi = ref (Array.length xs - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if xs.(mid) <= x then lo := mid else hi := mid
  done;
  !lo

let rec eval_raw f x =
  match f with
  | Const c -> c
  | Affine { slope; intercept } -> (slope *. x) +. intercept
  | Monomial { coeff; degree } -> coeff *. (x ** float_of_int degree)
  | Poly coeffs ->
      (* Horner evaluation. *)
      let acc = ref 0. in
      for i = Array.length coeffs - 1 downto 0 do
        acc := (!acc *. x) +. coeffs.(i)
      done;
      !acc
  | Relu { slope; knee } -> Float.max 0. (slope *. (x -. knee))
  | Pwl { xs; ys; _ } ->
      let n = Array.length xs in
      if x >= xs.(n - 1) then ys.(n - 1)
      else begin
        let i = segment xs x in
        let frac = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
        ys.(i) +. (frac *. (ys.(i + 1) -. ys.(i)))
      end
  | Mm1 { capacity } -> 1. /. (capacity -. x)
  | Scale (s, f) -> s *. eval_raw f x
  | Shift (c, f) -> c +. eval_raw f x
  | Sum (a, b) -> eval_raw a x +. eval_raw b x

let eval f x = eval_raw f (clamp01 x)

let rec integral_raw f x =
  match f with
  | Const c -> c *. x
  | Affine { slope; intercept } ->
      (slope *. x *. x /. 2.) +. (intercept *. x)
  | Monomial { coeff; degree } ->
      coeff *. (x ** float_of_int (degree + 1)) /. float_of_int (degree + 1)
  | Poly coeffs ->
      let acc = ref 0. in
      for i = Array.length coeffs - 1 downto 0 do
        acc := (!acc *. x) +. (coeffs.(i) /. float_of_int (i + 1))
      done;
      !acc *. x
  | Relu { slope; knee } ->
      if x <= knee then 0.
      else
        let d = x -. knee in
        slope *. d *. d /. 2.
  | Pwl { xs; ys; cum } ->
      let n = Array.length xs in
      if x >= xs.(n - 1) then
        cum.(n - 1) +. (ys.(n - 1) *. (x -. xs.(n - 1)))
      else begin
        let i = segment xs x in
        let dx = x -. xs.(i) in
        let y_at_x =
          ys.(i) +. (dx /. (xs.(i + 1) -. xs.(i)) *. (ys.(i + 1) -. ys.(i)))
        in
        cum.(i) +. (dx *. (ys.(i) +. y_at_x) /. 2.)
      end
  | Mm1 { capacity } -> log capacity -. log (capacity -. x)
  | Scale (s, f) -> s *. integral_raw f x
  | Shift (c, f) -> (c *. x) +. integral_raw f x
  | Sum (a, b) -> integral_raw a x +. integral_raw b x

let integral f x = integral_raw f (clamp01 x)

(* --- Batch entry points over an edge list ---

   Loops over many edges live here, not in their callers: a call to
   [eval]/[integral] from another library boxes the float it passes and
   the one it returns (libraries are compiled separately, so nothing
   inlines across them), which is two allocations per edge.  The
   [Affine] arm below is [eval_raw]/[integral_raw]'s expression on the
   same clamp, computed in place; every other family goes through
   [eval]/[integral].  Sums run in list order from +0. *)

let[@inline] eval_one f x =
  match f with
  | Affine { slope; intercept } -> (slope *. clamp01 x) +. intercept
  | f -> eval f x

let[@inline] integral_one f x =
  match f with
  | Affine { slope; intercept } ->
      let x = clamp01 x in
      (slope *. x *. x /. 2.) +. (intercept *. x)
  | f -> integral f x

let integral_sum ls ~edges loads =
  let acc = ref 0. in
  for i = 0 to Array.length edges - 1 do
    let e = edges.(i) in
    acc := !acc +. integral_one ls.(e) loads.(e)
  done;
  !acc

let phase_sums ls ~edges ~hat ~load dst =
  let phi = ref 0. and v = ref 0. in
  for i = 0 to Array.length edges - 1 do
    let e = edges.(i) in
    let f = ls.(e) and x = load.(e) and x0 = hat.(e) in
    phi := !phi +. integral_one f x;
    v := !v +. (eval_one f x0 *. (x -. x0))
  done;
  dst.(0) <- !phi;
  dst.(1) <- !v

let eval_into ls ~edges ~count src dst =
  for i = 0 to count - 1 do
    let e = edges.(i) in
    dst.(e) <- eval_one ls.(e) src.(e)
  done

let rec deriv_raw f x =
  match f with
  | Const _ -> 0.
  | Affine { slope; _ } -> slope
  | Monomial { coeff; degree } ->
      coeff *. float_of_int degree *. (x ** float_of_int (degree - 1))
  | Poly coeffs ->
      let acc = ref 0. in
      for i = Array.length coeffs - 1 downto 1 do
        acc := (!acc *. x) +. (float_of_int i *. coeffs.(i))
      done;
      !acc
  | Relu { slope; knee } -> if x >= knee then slope else 0.
  | Pwl { xs; ys; _ } ->
      let n = Array.length xs in
      if x >= xs.(n - 1) then 0.
      else begin
        let i = segment xs x in
        (ys.(i + 1) -. ys.(i)) /. (xs.(i + 1) -. xs.(i))
      end
  | Mm1 { capacity } ->
      let d = capacity -. x in
      1. /. (d *. d)
  | Scale (s, f) -> s *. deriv_raw f x
  | Shift (_, f) -> deriv_raw f x
  | Sum (a, b) -> deriv_raw a x +. deriv_raw b x

let deriv f x = deriv_raw f (clamp01 x)

let rec slope_bound = function
  | Const _ -> 0.
  | Affine { slope; _ } -> slope
  | Monomial { coeff; degree } -> coeff *. float_of_int degree
  | Poly coeffs ->
      (* Derivative Σ i ci x^{i-1} has non-negative coefficients, so it
         is maximised at x = 1. *)
      let acc = ref 0. in
      Array.iteri (fun i c -> acc := !acc +. (float_of_int i *. c)) coeffs;
      !acc
  | Relu { slope; _ } -> slope
  | Pwl { xs; ys; _ } ->
      let worst = ref 0. in
      for i = 0 to Array.length xs - 2 do
        if xs.(i) < 1. then
          worst :=
            Float.max !worst
              ((ys.(i + 1) -. ys.(i)) /. (xs.(i + 1) -. xs.(i)))
      done;
      !worst
  | Mm1 { capacity } ->
      let d = capacity -. 1. in
      1. /. (d *. d)
  | Scale (s, f) -> s *. slope_bound f
  | Shift (_, f) -> slope_bound f
  | Sum (a, b) -> slope_bound a +. slope_bound b

let max_value f = eval f 1.

let rec elasticity_bound = function
  | Const _ -> 0.
  | Affine { slope; intercept } ->
      if slope = 0. then 0.
      else if intercept = 0. then 1.
      else slope /. (slope +. intercept)
  | Monomial { coeff; degree } -> if coeff = 0. then 0. else float_of_int degree
  | Poly coeffs ->
      (* With non-negative coefficients, x p'(x) <= deg(p) p(x). *)
      let top = ref 0 in
      Array.iteri (fun i c -> if c > 0. then top := i) coeffs;
      float_of_int !top
  | Relu { slope; knee } ->
      if slope = 0. then 0. else if knee = 0. then 1. else infinity
  | Pwl { xs; ys; _ } ->
      (* Per-segment bound: slope * right endpoint / left value.  Not
         tight, but a valid upper bound (y is non-decreasing). *)
      let worst = ref 0. in
      for i = 0 to Array.length xs - 2 do
        if xs.(i) < 1. then begin
          let s = (ys.(i + 1) -. ys.(i)) /. (xs.(i + 1) -. xs.(i)) in
          if s > 0. then
            if ys.(i) = 0. then worst := infinity
            else
              worst :=
                Float.max !worst (s *. Float.min 1. xs.(i + 1) /. ys.(i))
        end
      done;
      !worst
  | Mm1 { capacity } -> 1. /. (capacity -. 1.)
  | Scale (s, f) -> if s = 0. then 0. else elasticity_bound f
  | Shift (c, f) ->
      (* x f' / (c + f) is bounded by each of the two estimates. *)
      if c > 0. then Float.min (elasticity_bound f) (slope_bound f /. c)
      else elasticity_bound f
  | Sum (a, b) ->
      (* Mediant inequality: the elasticity of a sum is at most the
         larger of the two elasticities. *)
      Float.max (elasticity_bound a) (elasticity_bound b)

let rec pp ppf = function
  | Const c -> Format.fprintf ppf "%g" c
  | Affine { slope; intercept } ->
      Format.fprintf ppf "%g*x + %g" slope intercept
  | Monomial { coeff; degree } -> Format.fprintf ppf "%g*x^%d" coeff degree
  | Poly coeffs ->
      Format.fprintf ppf "poly[%a]"
        (Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
           (fun ppf c -> Format.fprintf ppf "%g" c))
        coeffs
  | Relu { slope; knee } ->
      Format.fprintf ppf "max(0, %g*(x - %g))" slope knee
  | Pwl { xs; _ } -> Format.fprintf ppf "pwl(%d pts)" (Array.length xs)
  | Mm1 { capacity } -> Format.fprintf ppf "1/(%g - x)" capacity
  | Scale (s, f) -> Format.fprintf ppf "%g*(%a)" s pp f
  | Shift (c, f) -> Format.fprintf ppf "%g + (%a)" c pp f
  | Sum (a, b) -> Format.fprintf ppf "(%a) + (%a)" pp a pp b

let to_string f = Format.asprintf "%a" pp f

(* --- Parseable prefix syntax --- *)

let float_token x =
  (* Shortest representation that round-trips. *)
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec to_spec = function
  | Const c -> Printf.sprintf "(const %s)" (float_token c)
  | Affine { slope; intercept } ->
      Printf.sprintf "(affine %s %s)" (float_token slope)
        (float_token intercept)
  | Monomial { coeff; degree } ->
      Printf.sprintf "(monomial %s %d)" (float_token coeff) degree
  | Poly coeffs ->
      let body =
        String.concat " " (Array.to_list (Array.map float_token coeffs))
      in
      Printf.sprintf "(poly %s)" body
  | Relu { slope; knee } ->
      Printf.sprintf "(relu %s %s)" (float_token slope) (float_token knee)
  | Pwl { xs; ys; _ } ->
      let pairs =
        Array.to_list
          (Array.mapi
             (fun i x -> float_token x ^ " " ^ float_token ys.(i))
             xs)
      in
      Printf.sprintf "(pwl %s)" (String.concat "  " pairs)
  | Mm1 { capacity } -> Printf.sprintf "(mm1 %s)" (float_token capacity)
  | Scale (s, f) -> Printf.sprintf "(scale %s %s)" (float_token s) (to_spec f)
  | Shift (c, f) -> Printf.sprintf "(shift %s %s)" (float_token c) (to_spec f)
  | Sum (a, b) -> Printf.sprintf "(sum %s %s)" (to_spec a) (to_spec b)

type token = Lparen | Rparen | Atom of string

let tokenize s =
  let tokens = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Atom (Buffer.contents buf) :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | '(' ->
          flush ();
          tokens := Lparen :: !tokens
      | ')' ->
          flush ();
          tokens := Rparen :: !tokens
      | ' ' | '\t' | '\n' | '\r' -> flush ()
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !tokens

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let float_atom = function
  | Atom a -> (
      match float_of_string_opt a with
      | Some v -> v
      | None -> parse_error "expected a number, got %S" a)
  | Lparen | Rparen -> parse_error "expected a number, got a parenthesis"

let int_atom = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some v -> v
      | None -> parse_error "expected an integer, got %S" a)
  | Lparen | Rparen -> parse_error "expected an integer, got a parenthesis"

(* Recursive descent over the token list; every form is a
   parenthesised, fixed-keyword application. *)
let rec parse_form tokens =
  match tokens with
  | Lparen :: Atom keyword :: rest -> begin
      match keyword with
      | "const" ->
          let c, rest = take_float rest in
          (const c, expect_rparen rest)
      | "affine" ->
          let slope, rest = take_float rest in
          let intercept, rest = take_float rest in
          (affine ~slope ~intercept, expect_rparen rest)
      | "linear" ->
          let a, rest = take_float rest in
          (linear a, expect_rparen rest)
      | "monomial" ->
          let coeff, rest = take_float rest in
          let degree, rest = take_int rest in
          (monomial ~coeff ~degree, expect_rparen rest)
      | "poly" ->
          let coeffs, rest = take_floats rest in
          (poly (Array.of_list coeffs), expect_rparen rest)
      | "relu" ->
          let slope, rest = take_float rest in
          let knee, rest = take_float rest in
          (relu ~slope ~knee, expect_rparen rest)
      | "pwl" ->
          let values, rest = take_floats rest in
          let rec pair = function
            | [] -> []
            | x :: y :: more -> (x, y) :: pair more
            | [ _ ] -> parse_error "pwl needs an even number of values"
          in
          (pwl (pair values), expect_rparen rest)
      | "mm1" ->
          let capacity, rest = take_float rest in
          (mm1 ~capacity, expect_rparen rest)
      | "scale" ->
          let s, rest = take_float rest in
          let inner, rest = parse_form rest in
          (scale s inner, expect_rparen rest)
      | "shift" ->
          let c, rest = take_float rest in
          let inner, rest = parse_form rest in
          (shift c inner, expect_rparen rest)
      | "sum" ->
          let a, rest = parse_form rest in
          let b, rest = parse_form rest in
          (add a b, expect_rparen rest)
      | kw -> parse_error "unknown latency kind %S" kw
    end
  | Lparen :: _ -> parse_error "expected a latency kind after '('"
  | (Atom a) :: _ -> parse_error "expected '(', got %S" a
  | Rparen :: _ -> parse_error "unexpected ')'"
  | [] -> parse_error "unexpected end of input"

and take_float = function
  | t :: rest -> (float_atom t, rest)
  | [] -> parse_error "unexpected end of input (number expected)"

and take_int = function
  | t :: rest -> (int_atom t, rest)
  | [] -> parse_error "unexpected end of input (integer expected)"

and take_floats tokens =
  let rec go acc = function
    | (Atom _ as t) :: rest -> go (float_atom t :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] tokens

and expect_rparen = function
  | Rparen :: rest -> rest
  | _ -> parse_error "expected ')'"

let of_spec s =
  match parse_form (tokenize s) with
  | f, [] -> Ok f
  | _, _ :: _ -> Error "trailing input after the latency spec"
  | exception Parse_error m -> Error m
  | exception Invalid_argument m -> Error m
