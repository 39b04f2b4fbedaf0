(** Metrics registry: named counters and gauges with Prometheus-style
    labels.

    The engine registers its global tuple/fault counters here (via
    [Ctx]), and [Plan.build] registers per-node counters (tuples in/out,
    hash-table probes and builds) labelled with the node's signature, so
    the same logical operator accumulates across phases.  Registration is
    idempotent: asking for an existing (name, labels) cell returns the
    same cell, which is exactly what lets a re-built plan keep counting
    into the counters of its predecessor phases.

    Handles are plain mutable records — an increment is one load, one
    add, one store — so the hot path pays nothing measurable.  Dumps are
    deterministic (sorted by name, then labels) in two formats: a JSON
    object tree, and the Prometheus text exposition format. *)

type t

type counter
type gauge

val create : unit -> t

(** {2 Label scopes}

    A registry handle is a {e view} onto a shared store: {!with_labels}
    derives a view whose label pairs are prepended to every registration
    made through it.  This is what keeps a multi-query server sound: two
    concurrent queries registering the same per-node counter (same node
    signature) through views scoped [("query", qid)] get two distinct
    cells, where a shared unscoped registry would silently hand both the
    same cell — and a checkpoint restore in one query would clobber the
    other's counts.  Dumps and {!counter_total} always cover the whole
    store, whichever view they are called on. *)

val with_labels : t -> (string * string) list -> t

(** Retire every cell whose labels carry all of this view's scope pairs,
    so retiring a query bounds the store however many queries pass
    through one server registry.  On the root view this clears the whole
    registry.  Handles to pruned cells stay usable but orphaned: they no
    longer appear in dumps, and a re-registration makes a fresh cell. *)
val prune : t -> unit

(** Number of live cells in the whole store (boundedness tests). *)
val cells : t -> int

(** {2 Registration} — idempotent per (name, scope @ labels).  Asking for
    an existing name with a different metric kind raises
    [Invalid_argument]. *)

val counter :
  t -> ?labels:(string * string) list -> ?help:string -> string -> counter

val gauge :
  t -> ?labels:(string * string) list -> ?help:string -> string -> gauge

(** {2 Updates and reads} *)

val incr : ?by:int -> counter -> unit
val count : counter -> int

(** Overwrite a counter (checkpoint restore only). *)
val set_count : counter -> int -> unit

val set : gauge -> float -> unit

(** Sum of all counter cells with this name (any labels); 0 when none. *)
val counter_total : t -> string -> int

(** {2 Dumps} *)

val to_json : t -> Json.t

(** Prometheus text exposition format, scrape-validator clean: every
    family carries exactly one [# HELP] and one [# TYPE] line, and a
    family's samples are contiguous. *)
val to_prometheus : t -> string
