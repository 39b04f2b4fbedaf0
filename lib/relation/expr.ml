type t =
  | Col of string
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t

let col c = Col c
let const v = Const v
let int i = Const (Value.Int i)
let float f = Const (Value.Float f)

let rec columns = function
  | Col c -> [ c ]
  | Const _ -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> columns a @ columns b

let rec rename f = function
  | Col c -> Col (f c)
  | Const v -> Const v
  | Add (a, b) -> Add (rename f a, rename f b)
  | Sub (a, b) -> Sub (rename f a, rename f b)
  | Mul (a, b) -> Mul (rename f a, rename f b)
  | Div (a, b) -> Div (rename f a, rename f b)

let arith f a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    match a, b with
    | Value.Int x, Value.Int y ->
      (* Integer arithmetic stays integral except division. *)
      (match f with
       | `Add -> Value.Int (x + y)
       | `Sub -> Value.Int (x - y)
       | `Mul -> Value.Int (x * y)
       | `Div -> Value.Float (float_of_int x /. float_of_int y))
    | _ ->
      let x = Value.to_float a and y = Value.to_float b in
      (match f with
       | `Add -> Value.Float (x +. y)
       | `Sub -> Value.Float (x -. y)
       | `Mul -> Value.Float (x *. y)
       | `Div -> Value.Float (x /. y))

let compile e schema =
  let rec build = function
    | Col c ->
      let i = Schema.index schema c in
      fun t -> t.(i)
    | Const v -> fun _ -> v
    | Add (a, b) -> bin `Add a b
    | Sub (a, b) -> bin `Sub a b
    | Mul (a, b) -> bin `Mul a b
    | Div (a, b) -> bin `Div a b
  and bin op a b =
    let fa = build a and fb = build b in
    fun t -> arith op (fa t) (fb t)
  in
  build e

let rec size = function
  | Col _ | Const _ -> 1
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> 1 + size a + size b

let rec pp fmt = function
  | Col c -> Format.pp_print_string fmt c
  | Const v -> Value.pp fmt v
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp a pp b

let to_string e = Format.asprintf "%a" pp e
