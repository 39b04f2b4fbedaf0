(** Wall-clock shadow of the virtual-time observability stack.

    This is the {e one} module allowed to read hardware time and GC
    state — the effect lint structurally allowlists this file and flags
    any wall read elsewhere as [lint-wallclock-escape].

    A recorder attaches to a run as a sidecar: [Ctx.charge_span] calls
    {!attribute} at the exact points it charges the virtual clock, so
    every virtual-time measurement gains a hardware-time shadow.  The
    recorder only ever {e reads}; nothing it computes flows back into
    the engine, and a run with wall capture on is bit-identical to a
    bare run (virtual clock, result multiset, decision ledger).

    The recorder keeps only a timebase and a GC sampler.
    Its spans are {!Profile} spans: {!attribute} stamps wall self-time
    and allocation straight into the span being charged, so phases,
    scopes, nesting and order are the profile's, and {!spans}/{!totals}
    are views of [Profile.spans]/[Profile.totals].

    Attribution is delta-since-last-stamp: each call charges the wall
    time elapsed since the previous call to the span being charged
    (exact in aggregate, one clock read per charge).  Every 64th
    attribution is a sampler tick: it captures a
    [Gc.quick_stat] delta and charges the allocation to the sampled
    span. *)

type t

(** Cumulative GC activity since the recorder was created. *)
type gc_totals = {
  g_minor_words : float;
  g_major_words : float;
  g_promoted_words : float;
  g_minor_collections : int;
  g_major_collections : int;
  g_compactions : int;
  g_top_heap_words : int;
}

(** The wall fields of one profile span. *)
type info = {
  phase : string;
  node : string;
  depth : int;
  order : int;
  self_s : float;  (** wall seconds attributed to this span *)
  samples : int;  (** sampler ticks that landed in this span *)
  minor_words : float;  (** minor-heap words allocated under this span *)
  major_words : float;
}

val create : unit -> t

(** The registry the recorder stamps into: a private one from {!create}
    until {!attach} names another.  A run given a recorder but no
    profile profiles into this one. *)
val profile : t -> Profile.t

(** Stamp into [p] from now on (the run's own profile). *)
val attach : t -> Profile.t -> unit

(** {2 Timebase} *)

(** Monotonically-clamped [Unix.gettimeofday]: real elapsed seconds
    that never step backwards.  The module-level probe is for harness
    code (bench repetitions, progress reporting) that needs a wall
    reading without a recorder. *)
val monotonic_s : unit -> float

(** Process CPU seconds ([Sys.time]), for harness code. *)
val cpu_now : unit -> float

(** Wall seconds since this recorder was created. *)
val elapsed_s : t -> float

(** CPU seconds since this recorder was created. *)
val cpu_s : t -> float

(** {2 Attribution} — called from [Ctx] at the charge points. *)

(** Charge the wall time since the last stamp to [sp] ([None] goes to
    the "(unattributed)" bucket of the profile's current phase). *)
val attribute : t -> Profile.span option -> unit

(** Stamp into a named bucket (e.g. ["(driver wait)"], ["(checkpoint)"])
    so waiting and I/O time never pollute the next operator's span. *)
val note_bucket : t -> string -> unit

(** {2 Reads} *)

val spans : t -> info list
(** Every profile span, in registration order. *)

val totals : t -> info list
(** Aggregated across phases, keyed by node; [phase] is ["*"]. *)

(** Sampler ticks so far: one per 64 attributions. *)
val sample_count : t -> int

val gc_totals : t -> gc_totals
