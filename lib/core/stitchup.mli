open Adp_exec
open Adp_storage
open Adp_optimizer

(** The stitch-up phase (§3.4).

    After n phases have partitioned each of the m base relations into
    regions R⁰…Rⁿ⁻¹, the query answer still lacks the nᵐ − n cross-phase
    combinations.  The stitch-up phase evaluates exactly those, bottom-up
    along an optimizer-chosen join tree, with structure-to-structure
    granularity (§3.4.3): each side of every stitch-up join keeps one
    state structure per lineage (phase p, or "mixed"), and a combination
    of two same-phase structures is skipped when the registry already
    holds that subexpression for that phase (reusing its tuples instead —
    through a {!Adp_relation.Schema.permutation} when the registered plan
    laid the columns out differently) or, at the root, unconditionally
    (the exclusion list: every phase already emitted its own uniform
    combination).  Every stitch-up join is laid out by
    {!Adp_exec.Plan.join_layout} under the query's {!Logical.keep}, as
    the phases' joins are, so a registered intermediate always has the
    node's column set. *)

type stats = {
  combos_possible : int;  (** nᵐ − n *)
  output : int;  (** cross-phase result tuples emitted to the sink *)
  reused : int;  (** tuples reused from registered intermediates *)
  recomputed_uniform : int;
      (** uniform-combination tuples the registry could not supply *)
  time : float;  (** virtual time spent in stitch-up *)
}

(** [run ctx q ~join_tree ~phases ~registry ~sink] evaluates the stitch-up
    expression and feeds the results to the shared sink.  [join_tree]
    gives the stitch-up join order/shape (scans and joins; pre-aggregation
    only directly above scans), typically a fresh optimizer result under
    the selectivities observed during execution. *)
val run :
  Ctx.t ->
  Logical.query ->
  join_tree:Plan.spec ->
  phases:Phase.t list ->
  registry:Registry.t ->
  sink:Sink.t ->
  stats
