open Adp_relation
open Adp_exec
open Adp_optimizer

(** Plan partitioning with mid-query re-optimization (the Kabra–DeWitt
    style baseline of §4.4).

    With no statistics there is no good metric for placing the
    materialization point, so — like the paper — we break the plan after a
    fixed number of joins (3 by default): a first stage joins
    [break_after + 1] relations (picked greedily by estimated
    cardinality), materializes the result, and the remainder of the query
    is re-optimized with the materialization's now-exact cardinality
    before the second stage runs.  Queries small enough to fit in one
    stage degenerate to static execution. *)

type stats = {
  stages : int;
  materialized_card : int;  (** tuples materialized between stages *)
  materialized_width : int;
      (** columns of each materialized tuple: the stage-1 relations'
          columns that the query's join layout ({!Logical.keep}) keeps *)
  total_time : float;
  cpu : float;
  idle : float;
  result_card : int;
}

(** [initial_plan] forces the first stage to execute a cut of the given
    plan (the larger subtree is followed until it fits in
    [break_after + 1] relations) instead of an optimized one — used to
    reproduce the paper's scenario where the materialization point lands
    after the costly subexpression. *)
val run :
  ?preagg:Optimizer.preagg_strategy ->
  ?costs:Cost_model.t ->
  ?break_after:int ->
  ?initial_plan:Adp_exec.Plan.spec ->
  Logical.query ->
  Catalog.t ->
  Source.t list ->
  Relation.t * stats
