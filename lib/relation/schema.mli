(** Relation schemas.

    A schema is an ordered list of qualified column names
    (["orders.o_orderkey"]).  Column lookup accepts either the qualified name
    or the bare column name when it is unambiguous, mirroring SQL name
    resolution.  Schemas are value-compared; two equivalent subexpressions in
    different plans may produce the same columns in different orders, which
    stitch-up and the result sink reconcile via {!permutation}. *)

type t

(** [make names] builds a schema; names must be distinct.
    @raise Invalid_argument on duplicates. *)
val make : string list -> t

val columns : t -> string array
val arity : t -> int

(** Index of a column.  Accepts qualified ("t.c") or unqualified ("c")
    names; unqualified lookup must be unambiguous.
    @raise Not_found if absent or ambiguous. *)
val index : t -> string -> int

val mem : t -> string -> bool

(** Concatenation, used by joins: columns of [a] then columns of [b].
    @raise Invalid_argument on duplicate qualified names. *)
val concat : t -> t -> t

(** [project s cols] keeps the named columns, in the given order. *)
val project : t -> string list -> t

(** [rename_qualifier s q] requalifies every column as ["q.bare"]. *)
val rename_qualifier : t -> string -> t

(** [permutation ~from ~into] is the index mapping such that
    [(permutation ~from ~into).(i)] is the position in [from] of
    [into]'s i-th column.  @raise Not_found when [into] has a column
    absent from [from]. *)
val permutation : from:t -> into:t -> int array

(** Set equality of column names (order-insensitive). *)
val same_columns : t -> t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
