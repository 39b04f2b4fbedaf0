(** In-memory relations: a schema plus a growable tuple buffer.

    Source relations are accessed sequentially (the data-integration
    contract assumed in the paper): operators read them through
    {!to_seq}/{!iter} and may not index into them.  Relations are also the
    materialization target for intermediate results and test oracles. *)

type t

val create : Schema.t -> t
val of_list : Schema.t -> Tuple.t list -> t
val schema : t -> Schema.t
val cardinality : t -> int
val append : t -> Tuple.t -> unit
val get : t -> int -> Tuple.t
val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Tuple.t list
val to_seq : t -> Tuple.t Seq.t

(** Stable sort by the given column names. *)
val sort_by : t -> string list -> t

(** Stable sort with per-column direction. *)
val order_by : t -> (string * [ `Asc | `Desc ]) list -> t

(** Multiset equality, for test oracles. *)
val equal_bag : t -> t -> bool

(** Pretty-print at most [limit] rows (default 20) with a header. *)
val pp : ?limit:int -> Format.formatter -> t -> unit
