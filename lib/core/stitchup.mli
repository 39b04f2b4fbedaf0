open Adp_exec
open Adp_storage
open Adp_optimizer

(** The stitch-up phase (§3.4).

    After n phases have partitioned each of the m base relations into
    regions R⁰…Rⁿ⁻¹, the query answer still lacks the nᵐ − n cross-phase
    combinations.  The stitch-up phase evaluates exactly those, bottom-up
    along a join tree it chooses ({!join_tree}), with
    structure-to-structure granularity (§3.4.3): each side of every
    stitch-up join keeps one state structure per lineage (phase p, or
    "mixed"), and a combination of two same-phase structures is skipped
    when phase p's plan already holds that subexpression (reusing its
    tuples instead — through a {!Adp_relation.Schema.permutation} when
    that plan laid the columns out differently) or, at the root,
    unconditionally (the exclusion list: every phase already emitted its
    own uniform combination).  Every stitch-up join is laid out by
    {!Adp_exec.Plan.join_layout} under the query's {!Logical.keep}, as
    the phases' joins are, so a phase's intermediate always has the
    node's column set.

    The closed phases' plans are §3.4.2's registry ({!registered}), and
    this module is the one that knows which of their intermediates can
    be reused and what they are worth. *)

type stats = {
  combos_possible : int;  (** nᵐ − n *)
  output : int;  (** cross-phase result tuples emitted to the sink *)
  reused : int;  (** intermediate tuples reused from the phases' plans *)
  discarded : int;
      (** the phases' strictly intermediate join tuples not reused *)
  recomputed_uniform : int;
      (** uniform-combination tuples no phase's plan could supply *)
  time : float;  (** virtual time spent in stitch-up *)
}

(** All zero: the stats of a run with one phase. *)
val none : stats

(** [registered ph ~signature] is the schema and a shared view of the
    rows of the strictly intermediate join (not the root) of [ph]'s plan
    with that signature, if any; O(plan nodes).  A checkpoint-restored
    phase answers as a live one. *)
val registered :
  Phase.t -> signature:string -> (Adp_relation.Schema.t * Row_log.view) option

(** [join_tree ~preagg ~costs ~reuse q catalog sels phases] chooses the
    stitch-up tree (§3.4.2): the re-optimizer's, then each phase's shape
    newest first, each scored by its estimated cost minus the build and
    match cost of the phases' intermediates it can reuse; the first
    strictly cheapest wins.  Without [reuse], the re-optimizer's. *)
val join_tree :
  preagg:Optimizer.preagg_strategy -> costs:Cost_model.t -> reuse:bool ->
  Logical.query -> Catalog.t -> Adp_stats.Selectivity.t -> Phase.t list ->
  Plan.spec

(** [run ctx q ~join_tree ~phases ~reuse ~sink] evaluates the stitch-up
    expression and feeds the results to the shared sink.  [join_tree]
    gives the stitch-up join order/shape (scans and joins; pre-aggregation
    only directly above scans), typically {!join_tree}'s.  [phases] are
    in ascending id.  Without [reuse], every uniform combination is
    recomputed and every intermediate discarded. *)
val run :
  Ctx.t ->
  Logical.query ->
  join_tree:Plan.spec ->
  phases:Phase.t list ->
  reuse:bool ->
  sink:Sink.t ->
  stats
