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

(** [initial_plan] overrides the first plan choice for {!Static},
    {!Corrective} and {!Plan_partitioned} runs (ignored by
    {!Competitive}); used by experiments reproducing a documented poor
    starting plan.  [retry] overrides the source timeout/retry/failover
    policy for {!Static}, {!Corrective} and {!Eddying} runs.

    [trace] and [metrics] attach observability sinks to {!Static},
    {!Corrective} and {!Eddying} runs (they override any sink already in
    a corrective config; the remaining baselines ignore them).  Tracing
    never perturbs the virtual clock: a traced run and an untraced run
    report identical virtual times and result multisets.

    [profile] attaches the per-node span registry to {!Static} and
    {!Corrective} runs (same override rule as [trace]/[metrics]); like
    tracing, it is zero-perturbation — a profiled run is bit-identical
    to an unprofiled one.  The calibration ledger is a corrective
    setting ([Corrective.config.calibrate]).

    [wall] attaches the wall-clock/GC shadow recorder ({!Static},
    {!Corrective} and {!Eddying} runs).  It stamps into profile spans,
    so a run given [wall] without [profile] profiles into the recorder's
    private registry ({!Ctx.create}).  The recorder is read-only:
    virtual clock, result multiset and decision ledger stay
    bit-identical. *)
val run :
  ?preagg:Optimizer.preagg_strategy ->
  ?costs:Cost_model.t ->
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
