(** Scalar arithmetic expressions over a tuple, used by aggregation inputs
    (e.g. TPC-H revenue [l_extendedprice * (1 - l_discount)]) and computed
    projections. *)

type t =
  | Col of string
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t

val col : string -> t
val const : Value.t -> t
val int : int -> t
val float : float -> t

(** Columns referenced. *)
val columns : t -> string list

(** [rename f e] replaces every column [c] of [e] by [f c] (plan
    partitioning's materialized sources, §2.1). *)
val rename : (string -> string) -> t -> t

(** [compile e schema] resolves columns and returns an evaluator producing
    a {!Value.t} ([Null] is absorbing through arithmetic). *)
val compile : t -> Schema.t -> Tuple.t -> Value.t

(** Number of arithmetic nodes, for the cost model. *)
val size : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
