(** Retry policy engine for unreliable sources.

    The engine cannot see a remote source's future: all it observes is
    that no tuple has arrived yet.  A {!policy} turns that silence into
    actions — a virtual-time deadline on the next arrival, a bounded
    number of reconnect attempts separated by exponential backoff (with
    seeded, deterministic jitter), and, when the budget is exhausted,
    the verdict that the connection is permanently dead (the driver then
    fails over to a mirror or gives the source up).

    All waiting implied by timeouts and backoff is charged to the
    {!Clock} as idle time by the driver. *)

type policy = {
  timeout_s : float;
      (** declare a timeout when the next arrival is this many virtual
          seconds past the last progress; [infinity] disables timeouts *)
  max_retries : int;
      (** reconnect attempts before the connection is declared dead *)
  backoff_initial_s : float;  (** backoff after the first failed attempt *)
  backoff_multiplier : float;  (** growth factor per failed attempt *)
  backoff_max_s : float;  (** backoff cap *)
  jitter : float;
      (** multiplicative jitter: each backoff is scaled by a seeded
          uniform draw from [1-jitter, 1+jitter); 0 disables it *)
  seed : int;  (** root seed for the jitter streams *)
}

(** 60 s timeout, 4 retries, 0.5 s initial backoff doubling up to 30 s,
    10% jitter.  Generous enough that fault-free workloads (including
    bursty-gap arrivals) never trigger it. *)
val default_policy : policy

(** [default_policy] with timeouts disabled: the legacy wait-forever
    behaviour. *)
val no_timeouts : policy

(** Per-source retry controller. *)
type t

(** [create ?salt policy] — [salt] (e.g. the source's index) derives an
    independent jitter stream per controller. *)
val create : ?salt:int -> policy -> t

val policy : t -> policy

(** Failed attempts since the last progress. *)
val attempts : t -> int

(** Reconnect attempts issued over the controller's lifetime. *)
val retries_total : t -> int

(** The retry budget is spent: the next timeout means permanent failure. *)
val exhausted : t -> bool

(** Virtual time at which the current wait times out. *)
val deadline : t -> float

(** [in_time t a] is [a <= deadline t], without boxing the deadline. *)
val in_time : t -> float -> bool

(** Scheduled next reconnect attempt, when backing off after a failure. *)
val pending_attempt : t -> float option

(** A tuple was delivered (or a connection freshly established): reset
    the deadline and the attempt budget. *)
val note_progress : t -> now:float -> unit

(** A reconnect attempt at [now] failed: consume one attempt and
    schedule the next one a backoff later. *)
val record_failure : t -> now:float -> unit

(** A reconnect attempt at [now] succeeded: count it and reset the
    deadline and budget. *)
val record_success : t -> now:float -> unit
