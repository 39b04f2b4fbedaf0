open Adp_relation
open Adp_exec
open Adp_optimizer

(** Unified entry point over the four adaptive-processing strategies the
    paper compares:

    - {!Static}: optimize once, execute to completion (no adaptation);
    - {!Corrective}: adaptive data partitioning with corrective query
      processing (§4);
    - {!Plan_partitioned}: materialize after a fixed number of joins and
      re-optimize (the plan-partitioning baseline);
    - {!Competitive}: redundant computation over the top-k plans.

    [sources] is a factory because competitive execution needs an
    independent read cursor per candidate plan; the other strategies call
    it once. *)

type t =
  | Static
  | Corrective of Corrective.config
  | Plan_partitioned of { break_after : int }
  | Competitive of { candidates : int; explore_budget : float }
  | Eddying
      (** the eddy/SteM baseline (§2.1's "data partitioning" prior work):
          per-tuple greedy routing instead of ADP's global planning *)

(** [Corrective Corrective.default_config] *)
val corrective_default : t

type outcome = {
  result : Relation.t;
  report : Report.run;
  corrective_stats : Corrective.stats option;
      (** present for {!Corrective} runs (Table 1/2 details) *)
}

(** [static_config] is the corrective configuration {!Static} runs:
    it never polls, so it never switches plans on its own (recovery can
    still force a phase switch across a crash). *)
val static_config : Corrective.config

(** One rule applies the optional arguments: an argument that is given
    replaces the matching field of the {!Corrective} configuration
    ({!static_config} for {!Static}), and an absent one leaves that field
    as it is.  The baselines take what they support: [preagg] and
    [initial_plan] for {!Plan_partitioned}; [retry], [trace], [metrics]
    and [wall] for {!Eddying}; none for {!Competitive}.

    Observers never perturb the run: a traced, profiled or wall-recorded
    run reports the same virtual times and result multiset as a bare
    one.  Given [wall] without [profile], a corrective run profiles into
    the recorder's private registry ({!Ctx.create}). *)
val run :
  ?preagg:Optimizer.preagg_strategy ->
  ?label:string ->
  ?initial_plan:Plan.spec ->
  ?retry:Retry.policy ->
  ?trace:Adp_obs.Trace.t ->
  ?metrics:Adp_obs.Metrics.t ->
  ?profile:Adp_obs.Profile.t ->
  ?wall:Adp_obs.Wallclock.t ->
  t ->
  Logical.query ->
  Catalog.t ->
  sources:(unit -> Source.t list) ->
  outcome

(** Reference evaluation: naive in-memory nested-loop join + aggregation,
    bypassing the engine entirely.  Slow; used as a test oracle. *)
val reference : Logical.query -> Catalog.t -> sources:(unit -> Source.t list) -> Relation.t
