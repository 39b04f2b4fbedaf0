(** Metrics registry: named counters with Prometheus-style labels.

    It holds the engine counters [Ctx] registers for a run (tuples read,
    retries, failovers, lost sources, checkpoints and their bytes,
    paged-out states, breaker trips, degraded queries) — counts that
    [Corrective.stats], [Report.run] and benchmarks read back.  Per-node
    counts are not kept here: the plan and the profiler's spans already
    hold them.  Registration is idempotent: asking for an existing
    (name, labels) cell returns the same cell.

    A counter is a plain mutable record — an increment is one load, one
    add, one store.  The one dump format is the Prometheus text
    exposition format, deterministic (sorted by name, then labels). *)

type t

type counter

val create : unit -> t

(** {2 Label scopes}

    A registry handle is a {e view} onto a shared store: {!with_labels}
    derives a view whose label pairs are prepended to every registration
    made through it.  This is what keeps a multi-query server sound: two
    concurrent queries registering the same engine counter through views
    scoped [("query", qid)] get two distinct cells, where a shared
    unscoped registry would silently hand both the same cell — and a
    checkpoint restore in one query would clobber the other's counts.
    Dumps and {!counter_total} always cover the whole store, whichever
    view they are called on. *)

val with_labels : t -> (string * string) list -> t

(** Retire every cell whose labels carry all of this view's scope pairs,
    so retiring a query bounds the store however many queries pass
    through one server registry.  On the root view this clears the whole
    registry.  Handles to pruned cells stay usable but orphaned: they no
    longer appear in dumps, and a re-registration makes a fresh cell. *)
val prune : t -> unit

(** Number of live cells in the whole store (boundedness tests). *)
val cells : t -> int

(** {2 Registration} — idempotent per (name, view scope); labels come
    only from {!with_labels}. *)

val counter : t -> ?help:string -> string -> counter

(** {2 Updates and reads} *)

(** [incr c] is [add c 1]. *)
val incr : counter -> unit

val add : counter -> int -> unit

val count : counter -> int

(** Overwrite a counter (checkpoint restore only). *)
val set_count : counter -> int -> unit

(** Sum of all counter cells with this name (any labels); 0 when none. *)
val counter_total : t -> string -> int

(** {2 Dump} *)

(** Prometheus text exposition format, scrape-validator clean: every
    family carries exactly one [# HELP] and one [# TYPE] line, and a
    family's samples are contiguous. *)
val to_prometheus : t -> string
