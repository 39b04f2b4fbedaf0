(** Execution context: the virtual clock, the cost constants, the
    observability sinks and the global counters shared by all operators
    of one query execution.

    The counters live in the metrics registry (as [adp_*_total] counter
    cells) rather than as plain record fields, so a metrics dump sees
    exactly what the engine counted and `Report.run` can be derived from
    the registry — one source of truth, no hand-threaded duplicates.
    They are the registry's only cells: clock times, per-node counts and
    breaker transitions each have their own record ([Report.run], the
    plan and its profile spans, [Breaker.transitions]). *)

type t = {
  clock : Clock.t;
  costs : Cost_model.t;
  trace : Adp_obs.Trace.t;
  profile : Adp_obs.Profile.t option;
      (** per-node span registry; [None] = profiling disabled *)
  wall : Adp_obs.Wallclock.t option;
      (** wall-clock/GC shadow recorder; [None] = wall capture off *)
  tuples_read : Adp_obs.Metrics.counter;  (** source tuples consumed *)
  retries : Adp_obs.Metrics.counter;
      (** source reconnect attempts issued *)
  failovers : Adp_obs.Metrics.counter;  (** mirror failovers performed *)
  sources_failed : Adp_obs.Metrics.counter;
      (** sources permanently lost (all mirrors exhausted) *)
  checkpoints : Adp_obs.Metrics.counter;
      (** checkpoint files written by this run *)
  checkpoint_bytes : Adp_obs.Metrics.counter;
      (** bytes of checkpoint data written *)
  paged_out : Adp_obs.Metrics.counter;
      (** state structures paged out by memory pressure *)
  breaker_trips : Adp_obs.Metrics.counter;
      (** circuit breakers tripped open *)
  degraded : Adp_obs.Metrics.counter;
      (** queries deliberately degraded by deadline/memory governance *)
}

(** [trace] defaults to {!Adp_obs.Trace.null} (tracing disabled);
    [metrics] defaults to a fresh private registry.  The [wall] recorder
    stamps into profile spans, so with [wall] the context always
    profiles: into [profile] when given (the recorder is attached to
    it), else into the recorder's private registry. *)
val create :
  ?costs:Cost_model.t ->
  ?trace:Adp_obs.Trace.t ->
  ?metrics:Adp_obs.Metrics.t ->
  ?profile:Adp_obs.Profile.t ->
  ?wall:Adp_obs.Wallclock.t ->
  unit ->
  t

(** Charge CPU cost.  With wall capture on, also stamps the hardware
    clock into the "(unattributed)" bucket — a read-only sidecar that
    never perturbs the virtual clock. *)
val charge : t -> float -> unit

(** Is profiling enabled? *)
val profiled : t -> bool

(** Bucket the wall time of a blocking wait or of checkpoint I/O (e.g.
    ["(driver wait)"], ["(checkpoint)"]) so it never pollutes the next
    operator's span.  No-op without wall capture. *)
val wall_bucket : t -> string -> unit

(** [charge_span t sp c]: {!charge}, plus attribute the same [c] virtual
    microseconds to span [sp] (when profiling).  The attribution re-uses
    the float being charged — it never reads the clock — so a profiled
    run stays bit-identical to an unprofiled one. *)
val charge_span : t -> Adp_obs.Profile.span option -> float -> unit

(** The current-phase span for [node], or [None] when not profiling. *)
val span : t -> ?depth:int -> string -> Adp_obs.Profile.span option

(** Name the profiler's current phase ("phase 1", "stitch-up", ...).
    No-op when not profiling. *)
val set_phase : t -> string -> unit

val now : t -> float

(** Is tracing enabled?  Guard every {!emit} with this so event payloads
    are never constructed against the null sink. *)
val traced : t -> bool

(** Emit a trace event stamped with the current virtual time.  The clock
    is read, never advanced: tracing cannot perturb virtual time. *)
val emit : t -> Adp_obs.Trace.event -> unit
