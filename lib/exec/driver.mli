(** Event loop driving sources into a consumer.

    The driver repeatedly picks the unexhausted source whose next tuple has
    the earliest arrival time (round-robin among ties, which implements
    data-availability-driven adaptive scheduling: a delayed source never
    blocks work available on another), advances the virtual clock, and
    hands the tuple to the consumer.

    Sources may also fail.  A {!Retry.policy} governs how silence is
    interpreted: when no tuple arrives within the timeout, the driver
    issues reconnect attempts separated by exponential backoff (both
    waits recorded as retry idle time on the {!Clock}); when the attempt
    budget is exhausted the connection is declared permanently dead and
    the driver fails over to the source's next mirror mid-pipeline — or,
    with no mirror left, marks the source [Failed] and completes the run
    with partial results.  Failovers and permanent losses immediately
    invoke the poll hook, so a re-optimizer can react to the changed
    source landscape without waiting for the next scheduled poll.

    Optional {!Breaker} controllers (one per source, persisting across
    phases) learn from repeated failures: a tripped breaker holds the
    source's reconnect attempts back to its seeded probe schedule, and —
    when the source has a mirror — fails over immediately instead of
    burning the remaining retry budget.  A trip to open is counted in
    the context's [breaker_trips], and every state transition (which
    the breaker counts itself) is, when tracing, emitted as a
    [Breaker_state_changed] event.

    An optional poll hook fires whenever the given virtual-time interval
    has elapsed — this is the corrective query processor's background
    re-optimizer (§4.1), whose invocation cost is charged to the clock.
    Returning [`Switch] suspends the loop (sources keep their positions, so
    a new plan resumes reading exactly where the old one stopped);
    [`Stop] ends it deliberately — the governance layer's graceful
    degradation.  With a [deadline] (virtual µs), the driver also hands
    control to the poll at the deadline when no source event would fire
    before it, so a stalled run degrades at its deadline instead of
    sleeping past it. *)

type outcome = Exhausted | Switched | Stopped

(** [retry] defaults to {!Retry.default_policy}, which is generous enough
    that fault-free workloads never trigger it.  [breakers] must hold one
    controller per source, in source-list order (a mismatched array is
    ignored).  [consume] may change the source it is handed, but no other:
    the driver keeps each source's pending in-time delivery until that
    source is taken from or a poll callback runs. *)
val run :
  Ctx.t ->
  sources:Source.t list ->
  consume:(Source.t -> Adp_relation.Tuple.t -> unit) ->
  ?poll:float * (unit -> [ `Continue | `Switch | `Stop ]) ->
  ?retry:Retry.policy ->
  ?deadline:float ->
  ?breakers:Breaker.t array ->
  unit ->
  outcome
