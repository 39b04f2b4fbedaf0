open Adp_relation

(** Source-description catalog.

    In data integration, a source description typically records only the
    schema; cardinalities, orderings and keys may be absent.  When a
    cardinality is missing, the optimizer assumes 20,000 tuples, as the
    paper does (roughly the median table size of its TPC datasets). *)

type info = {
  schema : Schema.t;
  cardinality : float option;  (** [None] = unknown *)
  key : string option;  (** primary-key column, when declared *)
}

type t

val create : unit -> t

val add : t -> string -> info -> unit

(** @raise Not_found for unknown relations. *)
val info : t -> string -> info

val schema_of : t -> string -> Schema.t

(** Cardinality with the default assumption applied. *)
val cardinality : t -> string -> float

(** Whether the column is the declared key of its relation. *)
val is_key : t -> relation:string -> column:string -> bool

val relations : t -> string list
