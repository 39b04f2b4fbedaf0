open Adp_relation
open Adp_exec
open Adp_optimizer

(** Static plan analyzer: pre-execution verification of queries, physical
    plans, ADP invariants, and stitch-up trees (§3.4's correctness
    requirements, checked before any tuple flows).

    Every pass returns a list of {!Diagnostic.t} — empty means clean —
    instead of raising, so a driver or the [tukwila check] CLI can report
    all problems at once.  Plan boundaries ({!Adp_core.Corrective},
    [tukwila]) call these passes and fail fast via
    {!Diagnostic.raise_if_errors}. *)

(** Schema of a source, [None] when unknown (itself a diagnostic). *)
type schema_lookup = string -> Schema.t option

(** Value type of a qualified column, [None] when unknown; unknown types
    skip type checks rather than fail them. *)
type type_lookup = string -> Value.ty option

val no_types : type_lookup

(** Infer a {!type_lookup} from materialized relations by sampling each
    column's first non-null value (bounded scan). *)
val types_of_relations : (string * Relation.t) list -> type_lookup

(** {2 Pass 1: schema / type checking} *)

(** Bottom-up output schema of a plan, mirroring what [Plan.instantiate]
    builds ([Schema.concat] at joins, [Aggregate.partial_schema] at
    pre-aggregations).  [Error diags] when any node fails to type. *)
val spec_schema :
  lookup:schema_lookup -> Plan.spec -> (Schema.t, Diagnostic.t list) result

(** Verify one physical plan: scan sources known and distinct, filter and
    join-key columns resolve in their input schemas, key lists of equal
    length and pairwise-joinable types, pre-aggregation group/agg columns
    present and [sum]/[avg] inputs numeric, output schemas well formed.
    Codes include ["unknown-source"], ["duplicate-source-in-plan"],
    ["unknown-column"], ["join-key-arity-mismatch"],
    ["join-key-unresolved"], ["join-key-type-mismatch"],
    ["preagg-missing-column"], ["preagg-non-numeric-agg"],
    ["bad-schema"], and warning ["cross-product-join"]. *)
val check_plan :
  ?types:type_lookup -> lookup:schema_lookup -> Plan.spec -> Diagnostic.t list

(** {!check_plan} plus conformance of the plan to its query: base
    relations equal the query's source set (["plan-relation-mismatch"]),
    join predicates equal the query's predicates over that set
    (["plan-predicate-mismatch"]), and each scan carries exactly the
    query's pushed-down filter (["plan-filter-mismatch"]).  Guards the
    executor's [Plan.push: unknown source] failure mode statically. *)
val check_plan_for_query :
  ?types:type_lookup -> lookup:schema_lookup -> Logical.query -> Plan.spec ->
  Diagnostic.t list

(** Verify a logical query (every {!Logical.validate_list} code, plus
    ["too-many-relations"] beyond {!Enumerate.max_relations}).  Covers the
    [Eddy: unknown relation / unqualified column] failure modes. *)
val check_query : lookup:schema_lookup -> Logical.query -> Diagnostic.t list

(** {2 Pass 2: ADP conformance} *)

(** All plans participating in one adaptive data partitioning execution
    must cover the same base-relation set (["adp-base-set-mismatch"]) with
    identical effective leaf signatures (["adp-leaf-signature-mismatch"])
    — §3.4's condition for phases to partition each relation into
    combinable regions.  (Both-input buffering, the paper's other
    condition, is structural in this engine: every join is a symmetric
    hash join.) *)
val check_conformance : Plan.spec list -> Diagnostic.t list

(** Effective leaf signature per source: the scan's signature, or the
    pre-aggregation's when one sits directly above the scan. *)
val effective_leaf_signatures : Plan.spec -> (string * string) list

(** A rewritten plan (e.g. after pre-aggregation insertion) must stay
    equivalent to its source: same base relations
    (["rewrite-relation-mismatch"]) and same join predicates
    (["rewrite-predicate-mismatch"]). *)
val check_equivalent :
  before:Plan.spec -> after:Plan.spec -> Diagnostic.t list

(** {2 Pass 3: stitch-up trees} *)

(** Verify a candidate stitch-up join tree: pre-aggregation only directly
    above scans (["stitch-preagg-above-join"]), the tree covers the
    query's relation set, and — via {!Stitch_matrix.check} — its
    combination matrix covers exactly the nᵐ − n cross-phase
    combinations. *)
val check_stitch_tree :
  phases:int -> Logical.query -> Plan.spec -> Diagnostic.t list

(** {2 Pass 4: determinism / configuration audit} *)

(** Range-check the adaptive-execution knobs (["bad-knob"]): poll
    interval and thresholds positive, phase budget at least one, retry
    policy well formed (timeout and backoffs positive, jitter in [0, 1),
    multiplier at least 1). *)
val check_knobs :
  poll_interval:float -> switch_threshold:float -> max_phases:int ->
  min_leaf_seen:int -> retry:Retry.policy ->
  Diagnostic.t list

(** Range-check the resource-governance knobs.  Invalid values are
    structured diagnostics, never silently clamped.  Codes:
    ["gov-bad-deadline"] (deadline must be a positive budget),
    ["gov-bad-budget"] / ["gov-bad-ceiling"] (tuple caps must be
    positive), ["gov-ceiling-below-budget"] (hard ceiling below the soft
    paging budget would degrade before paging triggers),
    ["gov-bad-breaker"] (window/cooldown positive, threshold ≥ 1, jitter
    in [0, 1)), and ["gov-breaker-window"] (a failure window shorter than
    the probe cooldown makes the breaker flap — failures expire before it
    can re-trip).  ["gov-needs-polls"]: a deadline, memory budget or
    memory ceiling on a run that never polls ([poll_interval] infinite,
    a static run), since only the re-optimizer's polls enforce them. *)
val check_governance :
  poll_interval:float -> deadline:float option -> memory_budget:int option ->
  memory_ceiling:int option -> breaker:Breaker.policy option ->
  Diagnostic.t list

(** {2 Umbrella} *)

(** The full pre-execution work-up used by [tukwila check] and the
    drivers: {!check_query}, then {!check_plan_for_query} on every plan,
    {!check_conformance} across them, and {!check_stitch_tree} on the
    first plan for the given phase count. *)
val check_workload :
  ?types:type_lookup -> ?phases:int -> lookup:schema_lookup ->
  Logical.query -> Plan.spec list -> Diagnostic.t list

(** {2 Pass 5: checkpoint phase ledger}

    Recovery-time validation that a checkpoint's phase regions still
    partition the source streams it is being resumed against.  [ledger]
    is the checkpoint's phase ledger, oldest phase first: each entry is
    the phase id and the per-source cumulative end position at the moment
    the phase closed (the last entry is the in-flight phase at capture
    time).  [sources] are the re-created sources with their current
    cardinalities.  Codes: ["ckpt-empty-ledger"], ["ckpt-phase-order"],
    ["ckpt-source-missing"] (ledger names a source the recovered run
    lacks), ["ckpt-source-unknown"] (a recovered source has no recorded
    position), ["ckpt-source-truncated"] (recorded position beyond the
    stream's end — the source shrank), and ["ckpt-region-overlap"]
    (positions regress between phases). *)
val check_checkpoint_regions :
  ledger:(int * (string * int) list) list ->
  sources:(string * int) list ->
  Diagnostic.t list
