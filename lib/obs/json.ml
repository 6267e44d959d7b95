type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float_repr x =
  if Float.is_nan x then "nan"
  else if x = Float.infinity then "inf"
  else if x = Float.neg_infinity then "-inf"
  else begin
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x
  end

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s -> add_escaped buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* --- parser: recursive descent over the raw string --- *)

exception Parse_error of int * string

let parse_error pos msg = raise (Parse_error (pos, msg))

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> parse_error c.pos (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error c.pos (Printf.sprintf "expected %s" word)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_error c.pos "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
        c.pos <- c.pos + 1;
        (match peek c with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
            if c.pos + 4 >= String.length c.s then
              parse_error c.pos "truncated \\u escape";
            let hex = String.sub c.s (c.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> parse_error c.pos "bad \\u escape"
            in
            (* Only the codepoints we ever emit (< 0x20) need to survive;
               others are replaced bytewise if out of Latin-1 range. *)
            if code < 0x100 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?';
            c.pos <- c.pos + 4
        | _ -> parse_error c.pos "bad escape");
        c.pos <- c.pos + 1;
        go ()
    | Some ch ->
        Buffer.add_char buf ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.s && is_num_char c.s.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  if tok = "" then parse_error start "expected a number";
  let is_float =
    String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') tok
  in
  (* A literal beyond the float range would read as an infinity, which
     the writer spells [inf]/[-inf]: no document we write holds one. *)
  let finite x =
    if Float.is_finite x then Float x
    else parse_error start "number literal out of range"
  in
  if is_float then
    match float_of_string_opt tok with
    | Some x -> finite x
    | None -> parse_error start "bad float literal"
  else
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some x -> finite x
        | None -> parse_error start "bad number literal")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error c.pos "unexpected end of input"
  | Some 'n' ->
      if
        c.pos + 3 <= String.length c.s
        && String.sub c.s c.pos 3 = "nan"
      then literal c "nan" (Float Float.nan)
      else literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'i' -> literal c "inf" (Float Float.infinity)
  | Some '"' -> String (parse_string_body c)
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec elems () =
          items := parse_value c :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              elems ()
          | Some ']' -> c.pos <- c.pos + 1
          | _ -> parse_error c.pos "expected ',' or ']'"
        in
        elems ();
        List (List.rev !items)
      end
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ()
          | Some '}' -> c.pos <- c.pos + 1
          | _ -> parse_error c.pos "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '-' ->
      if
        c.pos + 4 <= String.length c.s
        && String.sub c.s c.pos 4 = "-inf"
      then literal c "-inf" (Float Float.neg_infinity)
      else parse_number c
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing input at offset %d" c.pos)
      else Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "%s at offset %d" msg pos)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
