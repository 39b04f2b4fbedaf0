(** Tuples: immutable value arrays positioned against a {!Schema.t}.

    The Tukwila paper represents tuples as vectors of pointers to attribute
    containers so that state structures can store values in one physical
    order while operators read them in another; in OCaml the value array is
    already a vector of boxed values, and re-ordering is a {!project}
    through a {!Schema.permutation}. *)

type t = Value.t array

val arity : t -> int
val get : t -> int -> Value.t

(** [concat a b] is the join concatenation of the two tuples. *)
val concat : t -> t -> t

(** [project t idxs] extracts the values at the given positions, in order. *)
val project : t -> int array -> t

(** [key t idxs] is the composite key at the given positions, for use in
    hash and sorted state structures. *)
val key : t -> int array -> Value.t array

val compare_key : Value.t array -> Value.t array -> int
val hash_key : Value.t array -> int
val equal_key : Value.t array -> Value.t array -> bool

(** Total order on whole tuples (lexicographic). *)
val compare : t -> t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
