open Adp_relation

(** Final (blocking) hash aggregation — the shared group-by operator of
    Figure 1.  One instance is shared by all phase plans and the stitch-up
    plan of a query: every plan's root output is fed into it, and the final
    result is emitted once all plans complete.

    The operator consumes either raw tuples (evaluating aggregate input
    expressions directly) or partial-aggregate tuples produced by
    pre-aggregation / pseudogroup operators, which it "coalesces". *)

type input = Raw | Partial

type t

(** [create ctx ~group_cols ~aggs ~input schema] — [schema] is the schema
    of the tuples that will be fed in. *)
val create :
  Ctx.t ->
  group_cols:string list ->
  aggs:Aggregate.spec list ->
  input:input ->
  Schema.t ->
  t

val add : t -> Tuple.t -> unit

(** The aggregate compiled against another schema with the columns of
    [create]'s: [add_view t (view t s) tuple] aggregates a tuple laid out
    under [s] as {!add} would its permuted copy.  Every view folds into
    the same group rows. *)
type view

val view : t -> Schema.t -> view
val add_view : t -> view -> Tuple.t -> unit

(** [absorb] is {!add_view} without its [agg_update] charge, which
    [charge_updates t n] makes [n] times.  The aggregate never reads the
    clock, so charging after absorbing changes neither clock nor result. *)
val absorb : t -> view -> Tuple.t -> unit
val charge_updates : t -> int -> unit

(** Finalized result, one row per group in first-seen order: the group
    columns, then the aggregate outputs.  Without GROUP BY and with no
    input, one row as in SQL: [COUNT] 0 and every other aggregate NULL.
    Each row is charged one [output].  Can be called repeatedly; does
    not clear state. *)
val result : t -> Relation.t
