open Adp_exec

(** Symbolic verification of stitch-up coverage (§3.4).

    After n phases over m base relations, the stitch-up phase must
    produce exactly the nᵐ − n cross-phase lineage combinations — each
    once, and never a uniform combination (those were already emitted by
    their phases; the root-level exclusion list skips them).  This module
    replays the stitch-up evaluator's structure-to-structure enumeration
    {e symbolically}: instead of tuples, each state structure carries the
    lineage vector (relation → phase) it would produce, so the full
    combination matrix of a candidate stitch-up tree can be checked
    without executing anything. *)

(** One lineage combination: phase id per base relation, sorted by
    relation name. *)
type combo = (string * int) list

(** The multiset of lineage combinations the stitch-up evaluator emits at
    the root of [tree] for the given phase count, mirroring its
    uniform/mixed structure-to-structure enumeration.  Pre-aggregation
    nodes are lineage-transparent.  [exclude_root_uniform] (default true)
    models the root exclusion list; pass [false] to model a buggy
    evaluator that re-emits uniform combinations. *)
val symbolic :
  ?exclude_root_uniform:bool -> phases:int -> Plan.spec -> combo list

(** [check_cover ~relations ~phases combos] verifies that [combos] covers
    exactly the nᵐ − n cross-phase combinations, each once.  Diagnostics:
    ["stitch-missing-combo"], ["stitch-duplicate-combo"],
    ["stitch-uniform-combo"], ["stitch-alien-combo"] (a combination whose
    relations or phases lie outside the matrix).  Matrices beyond 65,536
    combinations yield a single ["stitch-matrix-too-large"] warning
    instead of enumerating. *)
val check_cover :
  relations:string list -> phases:int -> combo list -> Diagnostic.t list

(** {!symbolic} composed with {!check_cover} over the tree's own base
    relations: verifies the tree's stitch-up matrix is exactly covered. *)
val check :
  ?exclude_root_uniform:bool -> phases:int -> Plan.spec -> Diagnostic.t list
