open Adp_relation

(** State-structure registry (§3.4.2).

    Each phase plan "registers" the intermediate result of every join node
    it maintains: the plan id (phase number), the expression signature (a
    canonical string naming the base-relation set and predicates, produced
    by the logical algebra), the schema, and a view of the node's rows
    shared with the plan, so registering copies no row.  The stitch-up
    optimizer consults the registry to build its exclusion list and to
    reuse results instead of recomputing them; the reuse and discard
    counters reproduce Tables 1 and 2. *)

type entry = {
  signature : string;
  phase : int;
  schema : Schema.t;
  tuples : Row_log.view;  (** oldest first, shared with the plan *)
  cardinality : int;  (** [Row_log.view_length tuples] *)
  complexity : int;  (** number of base relations in the expression *)
  mutable reused : bool;
}

type t

val create : unit -> t

val register :
  t ->
  signature:string ->
  phase:int ->
  schema:Schema.t ->
  complexity:int ->
  Row_log.view ->
  unit

val find : t -> signature:string -> phase:int -> entry option

(** Phases that registered the given expression. *)
val phases_with : t -> signature:string -> int list

val mark_reused : entry -> unit

(** Sum of cardinalities of entries whose [reused] flag is set / unset —
    the "reused tuples" and "discarded tuples" columns of Tables 1–2.
    Only entries with [complexity >= 2] count: base-relation buffers are
    inputs, not reusable intermediate results. *)
val reused_tuples : t -> int

val discarded_tuples : t -> int
