open Adp_relation
open Adp_exec
open Adp_optimizer

(** Corrective query processing (§4).

    The query starts on the optimizer's initial plan.  A re-optimizer polls
    execution on a fixed virtual-time interval (the paper uses an extreme 1
    second): it folds the monitor's observed selectivities into the
    estimator, re-optimizes, and — when a plan substantially better than
    the cost-to-go of the running plan appears — suspends the current
    phase mid-pipeline, brings it to a consistent state (pre-aggregation
    windows flushed), and routes the remaining source data into the new
    plan.  After the sources are exhausted, the stitch-up phase combines
    the cross-phase regions, and the shared sink finalizes the answer.

    The monitor summarizes each join column once, in an
    {!Adp_stats.Join_estimator.side}: the §4.2 sorted-pair estimate and,
    with [use_histograms], the §4.5 histogram estimate both read it. *)

type config = {
  poll_interval : float;
      (** virtual µs between re-optimizer polls; [infinity] never switches
          plans, even at the poll a mirror failover triggers *)
  switch_threshold : float;
      (** switch when [best < threshold × cost-to-go(current)] *)
  min_leaf_seen : int;
      (** ignore selectivity observations until every participating leaf
          has produced this many tuples *)
  preagg : Optimizer.preagg_strategy;
  costs : Cost_model.t;
  reuse_intermediates : bool;
      (** when false, stitch-up reuses none of the closed phases'
          intermediates and recomputes all uniform combinations (ablation
          of §3.4's reuse); its stats then count every intermediate as
          discarded *)
  initial_plan : Adp_exec.Plan.spec option;
      (** start from this plan instead of the optimizer's choice (used by
          experiments that reproduce a specific Phase 0) *)
  memory_budget : int option;
      (** cap (in tuples) on resident join state structures; beyond it,
          structures are paged out most-complex-first (§3.4.2) and their
          probes pay the I/O penalty *)
  use_histograms : bool;
      (** §4.5 extension (off by default, as in Tukwila): every join
          column's {!Adp_stats.Join_estimator.side} also keeps an
          incremental histogram, and each poll feeds the predicted
          two-way join outputs to the re-optimizer — predictions cover
          joins the current plan is not executing, at the cost of
          per-tuple maintenance *)
  retry : Retry.policy;
      (** timeout/retry/backoff policy applied to every source; a
          permanent source failure triggers an immediate re-optimizer
          poll (a dead build-side input changes the best remaining
          plan) *)
  deadline : float option;
      (** virtual-µs budget for the whole query.  The re-optimizer poll
          compares the running plan's cost-to-go against the remaining
          budget; once the deadline cannot be met (or has passed), the
          engine {e degrades deliberately}: the phase closes early,
          stitch-up runs over what arrived, and the partial answer is
          reported with [degraded_reason = Some "deadline"] and the
          coverage machinery quantifying what was delivered *)
  memory_ceiling : int option;
      (** hard cap (in tuples) on the query's total resident footprint —
          join build sides {e plus} pre-aggregation windows (unlike
          [memory_budget], which counts only pageable join state).  When
          the footprint exceeds the ceiling even after paging, the query
          degrades exactly like a missed deadline, with
          [degraded_reason = Some "memory"] *)
  breaker : Breaker.policy option;
      (** when set, each source gets a circuit breaker (salted by source
          index).  Repeated connection failures within the policy window
          trip the breaker open: retries stop burning the retry budget,
          arrival events are deferred to the next seeded probe time, and
          the re-optimizer treats the source as stalled (its remaining
          input is costed at zero through a transient statistics overlay,
          biasing plan choice toward the healthy sources and mirrors).
          Live data or a successful probe closes the breaker. *)
  checkpoint : Adp_recovery.Checkpoint.policy option;
      (** when set, write consistent snapshots of the execution (phase
          ledger, operator state, stream positions, clock, observed
          statistics) to the policy's directory at the policy's trigger
          points *)
  resume_from : string option;
      (** recovery: path to a checkpoint file (or a directory, meaning
          its latest checkpoint).  The run closes the interrupted phase at
          its recorded positions and continues the residual input in a
          new, freshly re-optimized phase; stitch-up joins the cross-phase
          combinations, so the answer equals an uninterrupted run's *)
  crash : Adp_recovery.Crash.point list;
      (** engine-level fault injection: raise
          {!Adp_recovery.Crash.Crashed} at the given execution points
          (after any due checkpoint has been written) *)
  trace : Adp_obs.Trace.t;
      (** trace sink; {!Adp_obs.Trace.null} (the default) disables all
          event emission at zero cost and zero clock perturbation *)
  metrics : Adp_obs.Metrics.t option;
      (** record counters into this registry instead of a fresh private
          one (so a caller can dump them after the run) *)
  profile : Adp_obs.Profile.t option;
      (** per-node span profiler: virtual time, tuple and hash counts,
          memory high-water, attributed at the exact clock-charge sites —
          a profiled run is bit-identical to an unprofiled one *)
  calibrate : Adp_obs.Calibrate.t option;
      (** calibration ledger: per-node estimated vs. observed
          cardinality at every re-optimizer poll, phase close and
          stitch-up, plus every switch decision (taken or declined) with
          its blame node *)
  wall : Adp_obs.Wallclock.t option;
      (** wall-clock/GC shadow recorder: hardware self-time, allocation
          and sampling-profiler capture at the same charge sites the
          profiler uses.  Read-only sidecar — a wall-captured run is
          bit-identical to a bare one *)
  stats_seed : Adp_stats.Selectivity.dump option;
      (** cross-query warm start: seed the selectivity monitor with
          statistics learned by earlier executions (a server's shared
          store), so the initial plan is optimized with their evidence.
          Signatures carry the per-source filters and join predicates, so
          only logically equivalent subexpressions match.  A checkpoint's
          statistics (on resume) override seeded entries. *)
}

val default_config : config
(** 1 virtual second polls, threshold 0.7, 100-tuple observation guard,
    no pre-aggregation, reuse enabled.  Every run stops switching after
    8 phases. *)

type phase_info = {
  id : int;
  plan_desc : string;
  emitted : int;  (** result tuples this phase emitted *)
  read : int;  (** source tuples this phase consumed *)
}

type stats = {
  phases : int;
  stitch : Stitchup.stats;
      (** includes the reused and discarded intermediate tuples of Tables
          1–2; all zero for a single-phase run *)
  total_time : float;  (** virtual µs, including stitch-up *)
  cpu : float;
  idle : float;
  result_card : int;
  phase_log : phase_info list;
  coverage : float;
      (** fraction of source tuples delivered; < 1.0 only when a source
          was permanently lost (all mirrors exhausted) *)
  retries : int;  (** reconnect attempts issued *)
  failovers : int;  (** mirror failovers performed *)
  sources_failed : int;  (** sources permanently lost *)
  checkpoints : int;  (** checkpoint files written by this run *)
  paged_out : int;
      (** state structures paged out by memory pressure over the run *)
  resumed_phases : int;
      (** phases restored from a checkpoint (0 for a fresh run) *)
  degraded_reason : string option;
      (** [Some "deadline"] / [Some "memory"] when the run finished early
          under resource governance; [None] for a complete run (coverage
          < 1.0 with [None] means fault exhaustion, not governance) *)
  breaker_trips : int;  (** circuit-breaker closed→open transitions *)
  learned : Adp_stats.Selectivity.dump;
      (** everything the monitor observed over the run (seed included),
          ready to be absorbed into a server's shared store *)
}

(** Execute the query under corrective query processing.  Sources are
    consumed sequentially and never rewound. *)
val run :
  ?config:config ->
  Logical.query ->
  Catalog.t ->
  Source.t list ->
  Relation.t * stats
