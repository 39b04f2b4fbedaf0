(** Per-node span registry: the one record of where a run's virtual time,
    wall time and allocation went.

    A span is one plan node (or engine component) within one phase.  The
    engine attributes work to spans at the exact points where it charges
    the virtual clock — the amount added to a span is the same float that
    was charged — so attribution is exact and profiling never reads or
    perturbs the clock.  Alongside self time, spans accumulate tuples
    in/out, hash-table probes and builds, and a memory high-water mark.
    When a {!Wallclock} recorder is attached it stamps wall self-seconds,
    sampler ticks and allocated words into the same spans, so virtual and
    hardware cost of a node are two fields of one record.

    Spans are registered in pre-order within each phase (the engine walks
    the plan tree top-down), each carrying its depth and the order of its
    pre-order parent; that is enough to render an indented
    EXPLAIN-ANALYZE-style tree where the cumulative time of a node is its
    own self time plus that of the contiguous deeper spans that follow
    it.  Buckets (["(unattributed)"], ["(driver wait)"], ["(checkpoint)"])
    are depth-0 wall-only spans that are never a parent.

    The same registry lives across phase switches: [set_phase] names the
    current phase ("phase 0", "phase 1", "stitch-up", ...), and
    [totals] aggregates the same node across all phases, so a node's
    counts accumulate across re-planning. *)

type t

(** One node (or engine component) within one phase.  Read-only outside
    this module: the engine and the wall recorder accumulate through the
    functions below. *)
type span = private {
  phase : string;  (** scoped phase key *)
  node : string;
  depth : int;
  order : int;  (** registration order within the whole profile *)
  bucket : bool;  (** a wall-only bucket: depth 0, never a parent *)
  parent : int option;  (** [order] of the pre-order parent *)
  mutable self_us : float;  (** virtual microseconds attributed here *)
  mutable tuples_in : int;
  mutable tuples_out : int;
  mutable probes : int;
  mutable builds : int;
  mutable mem_hw : int;  (** high-water resident tuple count *)
  mutable wall_s : float;  (** wall seconds stamped by a recorder *)
  mutable samples : int;  (** recorder sampler ticks that landed here *)
  mutable minor_words : float;  (** minor-heap words allocated here *)
  mutable major_words : float;
}

(** A copy of a span, as {!spans} and {!totals} return it. *)
type info = span

val create : unit -> t

(** Name the phase under which subsequent [span] calls register.
    Defaults to ["phase 0"]. *)
val set_phase : t -> string -> unit

(** Per-query scope: a non-empty scope prefixes phase keys as
    ["scope:phase"].  Reset with [""]. *)
val set_scope : t -> string -> unit

(** [span t ~depth node] returns the span for [node] in the current
    phase, registering it (at the current phase's next pre-order slot)
    on first use.  Idempotent per (phase, node). *)
val span : t -> ?depth:int -> string -> span

(** [bucket t name]: the depth-0 bucket span [name] of the current
    phase, registered on first use. *)
val bucket : t -> string -> span

(** {2 Accumulation} — all O(1), no clock access. *)

val add_time : span -> float -> unit
(** [add_time sp us] adds virtual microseconds; call with the same value
    passed to [Ctx.charge]. *)

val add_in : span -> int -> unit
val add_out : span -> int -> unit
val add_probes : span -> int -> unit
val add_builds : span -> int -> unit

val note_mem : span -> int -> unit
(** Raise the high-water mark to [n] if larger. *)

val add_wall : span -> float -> unit
(** Add wall seconds (called by {!Wallclock} only). *)

val add_sample : span -> minor_words:float -> major_words:float -> unit
(** Count one sampler tick and the words allocated since the previous
    one (called by {!Wallclock} only). *)

(** {2 Reads} *)

(** All spans in registration order (pre-order within each phase). *)
val spans : t -> info list

(** The spans registered under the current scope, in registration
    order; every span when unscoped. *)
val in_scope : t -> info list

(** Aggregate across phases, keyed by node, ordered by first
    registration.  The [phase] field of each entry is ["*"]. *)
val totals : t -> info list

(** Self time plus that of the contiguous run of deeper non-bucket spans
    that follows [i] in [l] — the cumulative virtual microseconds of the
    subtree rooted at the [i]th span of a pre-order phase listing [l]. *)
val cumulative_us : info list -> int -> float

(** {2 Rendering} *)

val render :
  ?annot:(node:string -> string option) -> Format.formatter -> t -> unit
(** Indented per-phase tree: self and cumulative virtual seconds, tuple
    and hash counts, memory high-water.  [annot] may append extra text
    (est-vs-actual, blame marker) after a node's line. *)
