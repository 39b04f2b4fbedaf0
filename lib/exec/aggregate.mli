open Adp_relation

(** Aggregate functions and partial-aggregate plumbing.

    The common aggregates distribute over union (average via sum+count,
    §2.2 footnote), which is what makes both adaptive data partitioning and
    pre-aggregation sound: partial results computed over any partition of
    the input can be merged.  A partial accumulator is a flat value vector
    whose layout is derived from the aggregate list; pre-aggregation
    operators emit tuples of [group columns @ partial columns], and the
    final aggregation merges either raw input tuples or such partials.

    Group rows.  A group's accumulator is its {e group row}: the group
    columns, then the {!partial_names} slots, laid out as
    {!partial_schema}.  A pre-aggregation's flushed group row is
    therefore its partial tuple.  Both the final aggregation and
    pre-aggregation keep one row per group in a {!Adp_storage.Hash_table}
    keyed on the group columns, inserted first-seen, so the table's
    {!Adp_storage.Hash_table.view} lists the groups in first-seen order.
    Grouping follows GROUP BY: NULL groups with NULL, and [Int 3] with
    [Float 3.0] ({!Value.equal}). *)

open Adp_storage

type fn = Count | Sum | Min | Max | Avg

type spec = {
  fn : fn;
  expr : Expr.t;  (** ignored by [Count] *)
  name : string;  (** output column name, e.g. ["revenue"] *)
}

val count_all : name:string -> spec
val sum : name:string -> Expr.t -> spec
val min_of : name:string -> Expr.t -> spec
val max_of : name:string -> Expr.t -> spec
val avg : name:string -> Expr.t -> spec

(** Names of the partial-accumulator columns, e.g. ["pa.revenue_sum"].
    Their order defines the accumulator layout. *)
val partial_names : spec list -> string list

(** Schema of a pre-aggregated stream, and of a group row: the group
    columns (unchanged names, so joins above the pre-aggregation still
    resolve) followed by {!partial_names}. *)
val partial_schema : group_cols:string list -> spec list -> Schema.t

type compiled

(** [compile ~group_cols specs schema] resolves the group columns and the
    aggregate input expressions against the raw input schema. *)
val compile : group_cols:string list -> spec list -> Schema.t -> compiled

(** [compile_partial ~group_cols specs schema] prepares merging of partial
    tuples whose schema contains [group_cols] and {!partial_names}. *)
val compile_partial :
  group_cols:string list -> spec list -> Schema.t -> compiled

(** A fresh group row for the group of an input tuple: its group columns,
    then neutral accumulators. *)
val init : compiled -> Tuple.t -> Value.t array

(** Fold one input tuple (raw or partial, according to how the aggregator
    was compiled) into a group row's accumulators. *)
val update : compiled -> Value.t array -> Tuple.t -> unit

(** [find c groups tuple] is the cursor at [tuple]'s group row in
    [groups], or [-1] ({!Adp_storage.Hash_table.group}). *)
val find : compiled -> Hash_table.t -> Tuple.t -> int

(** [absorb c groups tuple] folds [tuple] into its group row in
    [groups], first inserting a fresh one ({!init}) when the group is
    new. *)
val absorb : compiled -> Hash_table.t -> Tuple.t -> unit

(** A group row's output: its group columns, then one final value per
    spec ([Avg] divides sum by count). *)
val finalize : compiled -> Value.t array -> Value.t array
