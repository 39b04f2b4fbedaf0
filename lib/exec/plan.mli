open Adp_relation

(** Physical plan trees and their push-based pipelined execution.

    A plan is a tree of scans, equi-joins and pre-aggregation operators.
    Execution is data-driven, as in the pipelined hash join: the driver
    pushes each arriving source tuple into its leaf; the tuple is filtered,
    buffered in the hash tables of every join on its path, probed against
    the opposite sides, and resulting tuples cascade to the root.  Every
    join therefore buffers its inputs — the requirement §3.4 places on all
    plans participating in adaptive data partitioning — and every join
    node's intermediate result is materialized for registration in the
    {!Adp_storage.Registry}.

    Signatures: every node carries a canonical signature built from its
    base-relation set, its join-predicate set and its pre-aggregation
    descriptors, so logically equivalent subexpressions in differently
    shaped plans (e.g. [(A ⋈ B) ⋈ C] and [A ⋈ (B ⋈ C)]) share signatures —
    the key to sharing observed selectivities (§4.2) and reusing state
    across plans (§3.1). *)

type preagg_mode =
  | Windowed of { initial : int; max_window : int }
      (** adjustable sliding window (§6) *)
  | Traditional  (** blocking pre-aggregation: emits only when flushed *)
  | Pseudogroup  (** singleton windows: schema-compatibility pass-through *)
  | Punctuated
      (** for input sorted by the group columns: emit the aggregate when
          the group key changes (§3.1's punctuated iterator).  Safe on
          unsorted input too — repeated keys then produce several partials
          per group, which the final aggregation coalesces. *)

type spec =
  | Scan of { source : string; filter : Predicate.t }
  | Join of {
      left : spec;
      right : spec;
      left_key : string list;
      right_key : string list;
    }
  | Preagg of {
      child : spec;
      group_cols : string list;
      aggs : Aggregate.spec list;
      mode : preagg_mode;
    }

(** {2 Spec construction and inspection} *)

val scan : ?filter:Predicate.t -> string -> spec

(** [join l r ~on:[(lcol, rcol); ...]] *)
val join : spec -> spec -> on:(string * string) list -> spec

val preagg :
  ?mode:preagg_mode ->
  group_cols:string list ->
  aggs:Aggregate.spec list ->
  spec ->
  spec

(** Base relation (scan source) names of the subtree, sorted. *)
val relations : spec -> string list

(** Join predicates of the subtree as canonical ["a=b"] strings, sorted.
    A join whose key lists differ in length contributes none. *)
val predicates : spec -> string list

(** Canonical signature of the subtree (equal for logically equivalent
    subexpressions). *)
val signature_of : spec -> string

(** Signature a join of the given relations/predicates would have —
    used by the optimizer to look up observed selectivities without
    building a spec.  [relations] are scan tokens ({!scan_token}). *)
val signature_of_parts :
  relations:string list -> predicates:string list -> preaggs:string list ->
  string

(** Scan token used in signatures: the source name, decorated with the
    pushed-down filter when present. *)
val scan_token : source:string -> filter:Predicate.t -> string

val pp_spec : Format.formatter -> spec -> unit

(** {2 Join layouts}

    A join's output carries the columns of its inputs that a [keep] rule
    admits, left input's first, each side in its own order.  The rule
    sees the base relations under the join (sorted source names, as
    {!relations} gives them) and one column name.  It must decide by the
    relation set alone: then every plan lays out one subexpression with
    the same columns, so cross-phase reuse ({!child_table}, the registry,
    stitch-up) works whatever the plan shape.  It must keep every column
    a join above reads as its key and every column the query outputs.
    Scans and pre-aggregations are never narrowed. *)

type keep = relations:string list -> string -> bool

(** Keeps every column: each join's output is the concatenation of its
    inputs. *)
val keep_all : keep

(** Where each column of one join's output comes from. *)
type layout

(** [join_layout keep ~relations left right] lays out a join over
    [relations] whose inputs have schemas [left] and [right].
    @raise Invalid_argument on duplicate kept column names. *)
val join_layout :
  keep -> relations:string list -> Schema.t -> Schema.t -> layout

val layout_schema : layout -> Schema.t

(** [join_tuple layout l r] is the output of the match of the left input
    tuple [l] with the right input tuple [r]: [Tuple.concat l r] when the
    layout drops nothing, else a fresh tuple of the kept values. *)
val join_tuple : layout -> Tuple.t -> Tuple.t -> Tuple.t

(** {2 Runtime} *)

type t

(** [instantiate ctx spec ~schema_of ~keep] resolves scan schemas through
    [schema_of] and builds the runtime tree, each join laid out by
    {!join_layout} under [keep].  [record_outputs] (default true)
    materializes every join node's results for registration in the
    state-structure registry; disable it for executions that will never
    stitch (single-phase runs), where it would only consume memory.
    @raise Invalid_argument if two scans share a source name. *)
val instantiate :
  ?record_outputs:bool ->
  Ctx.t ->
  spec ->
  schema_of:(string -> Schema.t) ->
  keep:keep ->
  t

val spec : t -> spec
val schema : t -> Schema.t

(** [push t ~source tuple] routes one source tuple and returns the result
    tuples that reached the root.  Each source's route (its leaf and the
    ancestors above it) is fixed by {!instantiate}.
    @raise Invalid_argument if no scan reads [source]. *)
val push : t -> source:string -> Tuple.t -> Tuple.t list

(** End-of-stream (or phase-suspension) flush: drains pre-aggregation
    windows so the plan reaches the consistent state required before a
    phase switch (§4.1); returns tuples reaching the root. *)
val flush : t -> Tuple.t list

(** {2 Introspection for monitoring and stitch-up} *)

type join_info = {
  signature : string;
  relations : string list;
  predicate : string list;
  out_count : int;
  left_out : int;  (** output count of the left child *)
  right_out : int;
  complexity : int;  (** number of base relations *)
}

(** Per-join statistics, leaves-first. *)
val join_infos : t -> join_info list

(** Materialized result of every join node: signature, output schema,
    tuples, complexity.  Includes the root. *)
val node_results : t -> (string * Schema.t * Tuple.t list * int) list

(** [leaf_partition t source] is the buffered partition of [source]'s
    effective leaf: the schema of its buffered tuples (post-filter,
    possibly pre-aggregated), the tuples oldest first, and the leaf's
    effective signature.  [None] if no scan reads [source]. *)
val leaf_partition : t -> string -> (Schema.t * Tuple.t list * string) option

(** The live table a join of [t] keeps over its child [signature], if
    that child's layout is [schema] and the join keys it on [key_cols] in
    that order: it holds the child's outputs, each key's newest first.
    [None] for the root, and on a plan that does not record outputs. *)
val child_table :
  t -> signature:string -> schema:Schema.t -> key_cols:string list ->
  Adp_storage.Hash_table.t option

(** What the monitor reads per effective leaf, in plan order, from
    counters alone (cost O(plan nodes), whether or not the plan records
    its outputs). *)
type leaf_count = {
  source : string;
  signature : string;  (** the effective leaf's signature *)
  seen : int;  (** source tuples read (pre-filter) *)
  passed : int;
      (** tuples the effective leaf produced: filter survivors, or the
          partials of a pre-aggregation directly over the scan *)
}

val leaf_counts : t -> leaf_count list

(** Pre-aggregation statistics, if any pre-aggregation operators exist:
    (signature, input count, output count, final window size). *)
val preagg_stats : t -> (string * int * int * int) list

(** Tuples currently held in the plan's join state structures. *)
val memory_in_use : t -> int

(** Buffered pre-aggregation groups currently resident. *)
val preagg_in_use : t -> int

(** Everything the governance ceiling counts: resident join build-side
    tuples ({!memory_in_use}) plus buffered pre-aggregation groups
    ({!preagg_in_use}). *)
val memory_footprint : t -> int

(** [apply_memory_pressure t ~budget] keeps at most [budget] tuples'
    worth of state structures in memory, paging out join-node structures
    in most-complex-expression-first order (§3.4.2's heuristic — complex
    expressions are least likely to be shared).  Swapped structures stay
    correct but their probes pay the cost model's I/O penalty.  Returns
    a descriptor (node signature plus build side) for every structure
    currently paged out — empty means everything is resident.  The
    on-memory-pressure checkpoint policy and [Report.run]'s page-out
    counter consume this list. *)
val apply_memory_pressure : t -> budget:int -> string list

(** {2 State capture and restore (checkpoint/recovery)}

    A plan's complete runtime state as plain data: per-leaf consumption
    counters, every join's swapped flags, every pre-aggregation's open
    window, and each node's materialized output list.  Join hash tables
    are not captured: a join inserts every tuple its children emit, in
    emission order, so [restore] rebuilds each table by re-inserting its
    child's outputs oldest-first, which reproduces the exact bucket
    chains.  [capture] walks the runtime tree; [restore] writes a
    captured state back into a freshly instantiated plan of the {e same
    spec} — the recovery path rebuilds an interrupted phase by
    instantiating its spec and restoring its state.

    Output lists are newest first, as the plan holds them: [capture]
    shares each node's live list rather than copying it.  A running plan
    only ever prepends to that list, so the captured state stays a
    snapshot of the capture instant however far the plan runs on.
    [restore] assigns the list back, and reverses it once per join table
    it refills.  Pre-aggregation groups are oldest first and are copied,
    because their accumulators are updated in place.  A state serialized
    and reloaded restores byte-identical iteration order. *)

type preagg_state = {
  ps_window : int;
  ps_in_window : int;
  ps_in_total : int;
  ps_out_total : int;
  ps_groups : (Tuple.t * Tuple.t) list;
      (** (group key, accumulator), oldest first *)
}

type state = {
  st_outputs : Tuple.t list;  (** newest first, shared with the plan *)
  st_out_count : int;
  st_impl : impl_state;
}

and impl_state =
  | St_leaf of { seen : int }
  | St_join of {
      st_left : state;
      st_right : state;
      lswapped : bool;
      rswapped : bool;
    }
  | St_preagg of { st_child : state; st_pa : preagg_state }

(** @raise Invalid_argument on a plan instantiated with
    [~record_outputs:false], whose output lists cannot rebuild its
    tables. *)
val capture : t -> state

(** @raise Invalid_argument when the state's shape does not match the
    plan's spec tree. *)
val restore : t -> state -> unit

(** The root's materialized output (schema, tuples oldest-first) — what
    the recovery path re-feeds to a rebuilt sink.  Requires
    [record_outputs]. *)
val root_results : t -> Schema.t * Tuple.t list
