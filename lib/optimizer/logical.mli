open Adp_relation
open Adp_exec

(** Logical select-project-join-aggregate queries — the query model of the
    paper's optimizer (§4.3): conjunctive equi-joins over base relations
    with pushed-down selections, and one optional grouping/aggregation on
    top.  Columns are qualified as ["relation.column"]; the relation a
    column belongs to is its qualifier. *)

type source = {
  name : string;  (** base relation / source name *)
  filter : Predicate.t;  (** selection pushed down to the scan *)
}

type query = {
  sources : source list;
  join_preds : (string * string) list;
      (** equi-join column pairs, both qualified *)
  group_cols : string list;  (** empty means no aggregation *)
  aggs : Aggregate.spec list;
  projection : string list;
      (** final output columns when no aggregation; empty = all *)
}

(** Relation qualifier of a column name.  @raise Invalid_argument when the
    name is unqualified. *)
val relation_of_column : string -> string

val source_names : query -> string list

(** Join predicates connecting [inside] to [outside] relation sets:
    returns (inside column, outside column) pairs. *)
val preds_between :
  query -> inside:string list -> outside:string list -> (string * string) list

(** All join predicates whose two columns both fall inside the relation
    set, as canonical ["a=b"] strings. *)
val preds_within : query -> string list -> string list

(** Whether the join predicates between two relations of the set connect
    it (a join over a disconnected set contains a cross product).  A
    predicate on an unqualified column joins nothing. *)
val connected : query -> string list -> bool

(** Signature of the subexpression joining exactly this relation set
    (canonical; matches the executor's signatures for pre-aggregation-free
    subtrees). *)
val signature_of_set : query -> string list -> string

(** Relation qualifier of a column name, or [None] when unqualified. *)
val relation_of_column_opt : string -> string option

(** The query's join layout rule ({!Adp_exec.Plan.keep}): a join over
    the relation set S keeps a column of a relation in S when the query
    outputs it (a group-by column, an aggregate input or a SELECT-list
    column) or when a join predicate pairs it with a column outside S.
    A [SELECT *] query keeps every column, and so does every join for a
    column that belongs to no source of the query (a pre-aggregation's
    [pa.*] partials).  Every phase's plan and the stitch-up phase lay
    out their joins under this one rule. *)
val keep : query -> Plan.keep

(** Sanity checks: every join/group/aggregate column resolves to a source,
    and the join graph is connected ({!connected} over the query's
    sources: a chain through a relation outside the query connects
    nothing).  Returns ALL problems found as
    [(code, message)] pairs with stable kebab-case codes
    (["no-sources"], ["duplicate-source"], ["unqualified-column"],
    ["unknown-source-for-column"], ["unknown-source"], ["unknown-column"],
    ["disconnected-join-graph"]), so callers — notably the static analyzer
    in [adp_analysis] — can report every problem at once instead of dying
    on the first.  [schema_of] may raise [Not_found] for unknown sources;
    that is reported, not propagated. *)
val validate_list :
  schema_of:(string -> Schema.t) -> query -> (string * string) list

(** Raising wrapper over {!validate_list}.
    @raise Invalid_argument listing every problem found. *)
val validate : schema_of:(string -> Schema.t) -> query -> unit

val pp : Format.formatter -> query -> unit
