open Adp_relation
open Adp_exec
open Adp_optimizer
module Corrective = Adp_core.Corrective
module Diagnostic = Adp_analysis.Diagnostic

(** The multi-query server: a durable query queue, a supervised worker
    pool executing queries through {!Adp_core.Strategy}, an adaptive
    dispatcher ({!Poll_controller}), and checkpoint-backed recovery from
    deterministic worker kills.

    The server is a discrete-event simulation over its own virtual clock
    (µs, reported in seconds), entirely separate from each query's
    virtual clock: directives, dispatcher polls, worker completions and
    supervisor detections are events; a worker "runs" a query by
    executing it through the ordinary corrective entry point and
    scheduling its completion at [start + virtual duration].  Everything
    that moves the server clock derives from the script, the knobs and
    the queries' own virtual durations — never from tracing or metrics —
    so the zero-perturbation contract extends to the whole serve run.

    {b Lifecycle.}  queued -> running -> done | failed | cancelled, plus
    the admission outcome rejected (bounded queue or draining).  A killed
    worker misses heartbeats (one every 0.05 virtual s); the supervisor
    declares it dead 0.2 virtual s after its last beat, reclaims the
    query, spawns a replacement worker and requeues the query with
    exponential backoff — resuming from its last checkpoint as a forced
    phase switch, so the final result multiset equals an uninterrupted
    run's.  A query that exhausts [max_retries] reclaims is failed.

    {b Cross-query adaptation.}  Completed queries publish everything
    their monitor observed into a shared {!Adp_stats.Selectivity} store
    keyed by node signature; each attempt starts seeded with a snapshot
    of the store, so later queries optimize their initial plans with
    earlier queries' evidence (publication happens at completion events,
    keeping causality deterministic). *)

type config = {
  workers : int;  (** pool size (>= 1) *)
  queue_capacity : int;  (** admission bound on waiting queries *)
  poll : Poll_controller.config;  (** dispatcher knobs, virtual µs *)
  max_retries : int;  (** reclaims tolerated per query before failing it *)
  retry_backoff : float;
      (** requeue delay after the first reclaim, virtual µs; doubles per
          subsequent reclaim of the same query *)
  checkpoint_dir : string;  (** root; each query checkpoints in a subdir *)
  checkpoint_every : int;
      (** tuple-count checkpoint trigger for worker runs (0 = phase
          boundaries only) *)
  class_quotas : (string * int) list;
      (** priority-aware admission: each class's maximum share of the
          waiting queue, in priority order (earlier = dispatched first;
          unclassified work dispatches last and is bounded only by
          [queue_capacity]).  Submitting under a class not listed here is
          rejected ([unknown-class:<name>]); exceeding a class's quota is
          rejected ([class-quota:<name>]) even when the global queue has
          room, so one chatty class cannot crowd out the others *)
  memory_budget : int option;
      (** global tuple budget partitioned evenly across the pool: every
          worker run executes under [budget / workers] as its paging
          budget, so co-resident queries cannot collectively exceed the
          server's memory *)
  corrective : Corrective.config;
      (** template for worker runs; the server supplies checkpoint,
          resume, crash, stats-seed, trace and metrics per attempt *)
  trace : Adp_obs.Trace.t;
      (** server trace sink: worker spawn/death/reclaim, poll-interval
          moves and admission decisions, plus every kept attempt's inner
          events re-stamped onto the server clock *)
  metrics : Adp_obs.Metrics.t option;
      (** registry for the queue-depth/poll-interval gauges, per-outcome
          counters, and every worker run's cells scoped by
          [("query", qid)] *)
}

val default_config : checkpoint_dir:string -> config

(** All knob problems at once ([server-*] and [poll-*] codes). *)
val validate : config -> Diagnostic.t list

(** What a submitted query spec resolves to.  [r_sources] is a factory:
    every attempt re-reads the sources from the start (positions are
    restored from the checkpoint on resume). *)
type resolved = {
  r_query : Logical.query;
  r_catalog : Catalog.t;
  r_sources : unit -> Source.t list;
}

(** Resolve a script's query spec (workload name or SQL).  May raise
    {!Diagnostic.Failed}; the server records the failure as the query's
    outcome instead of crashing. *)
type resolver = string -> resolved

type outcome =
  | Done of { result : Relation.t; stats : Corrective.stats }
  | Failed of string
  | Cancelled
  | Rejected of string

type query_report = {
  qr_id : string;
  qr_spec : string;
  qr_class : string option;  (** admission priority class *)
  qr_deadline_s : float option;
      (** deadline in server virtual seconds (absolute), when one was
          submitted *)
  qr_outcome : outcome;
  qr_submitted_s : float;  (** server virtual seconds *)
  qr_finished_s : float;
  qr_attempts : int;  (** executions started (1 = never interrupted) *)
  qr_warm_signatures : int;
      (** shared-store selectivity signatures matching this query's
          subexpressions when its first attempt started *)
  qr_warm_plan_changed : bool;
      (** would the optimizer have picked a different initial plan
          without the inherited evidence? *)
}

type report = {
  r_queries : query_report list;  (** submission order *)
  r_done : int;
  r_failed : int;
  r_cancelled : int;
  r_rejected : int;
  r_shed : int;
      (** queued queries dropped at a dispatcher poll because their
          deadline had already passed (counted among [r_rejected]) *)
  r_workers_spawned : int;  (** initial pool + replacements *)
  r_workers_died : int;
  r_reclaims : int;
  r_polls : int;
  r_busy_polls : int;
  r_min_interval_s : float;  (** smallest dispatcher interval reached *)
  r_max_interval_s : float;  (** largest dispatcher interval reached *)
  r_finished_s : float;  (** server virtual time at quiescence *)
  r_shared_signatures : int;
      (** selectivity entries in the shared store at shutdown *)
}

(** Run a workload script to quiescence.
    @raise Diagnostic.Failed on invalid knobs. *)
val run : config -> resolver -> Script.t -> report

(** Resolver over a generated TPC-H dataset: bundled workload names
    (Q3, Q3A, Q10, Q10A, Q5) or SQL over the TPC-H schema.
    [with_cardinalities] defaults to [false] — the serve story is the
    paper's no-statistics regime, where inherited selectivities matter
    most. *)
val tpch_resolver :
  ?with_cardinalities:bool -> ?seed:int -> Adp_datagen.Tpch.t -> resolver

(** {2 Report rendering}

    A [view] is the printable projection of a {!report}: outcome names
    and cardinalities instead of result relations.  [tukwila serve]
    prints it with {!pp_view}, and comparing two views checks that
    observers left a serve unperturbed. *)

type query_view = {
  v_id : string;
  v_spec : string;
  v_class : string;  (** admission priority class ("" = unclassified) *)
  v_deadline_s : float;  (** absolute server deadline (0 = none) *)
  v_outcome : string;  (** "done" | "failed" | "cancelled" | "rejected" *)
  v_reason : string;  (** failure/rejection reason ("" otherwise) *)
  v_submitted_s : float;
  v_finished_s : float;
  v_attempts : int;
  v_result_card : int;
  v_time_s : float;  (** the query's own virtual duration *)
  v_coverage : float;
  v_degraded : string;
      (** "deadline" / "memory" when governance degraded the run to a
          partial answer ("" = complete) *)
  v_breaker_trips : int;  (** circuit-breaker trips during the run *)
  v_resumed_phases : int;
  v_checkpoints : int;
  v_warm_signatures : int;
  v_warm_plan_changed : bool;
}

type view = {
  vr_queries : query_view list;
  vr_done : int;
  vr_failed : int;
  vr_cancelled : int;
  vr_rejected : int;
  vr_shed : int;
  vr_workers_spawned : int;
  vr_workers_died : int;
  vr_reclaims : int;
  vr_polls : int;
  vr_busy_polls : int;
  vr_min_interval_s : float;
  vr_max_interval_s : float;
  vr_finished_s : float;
  vr_shared_signatures : int;
}

val view : report -> view
val pp_view : Format.formatter -> view -> unit
