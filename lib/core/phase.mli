open Adp_relation
open Adp_exec
open Adp_storage

(** One execution phase of adaptive data partitioning (§2.1, §3).

    A phase is a plan instance plus the region of source data it consumed:
    the k-th phase reads the sources from wherever phase k−1 stopped, so
    each base relation R is implicitly partitioned into R⁰, R¹, … Rⁿ.  On
    completion (exhaustion or mid-stream suspension) the phase registers
    every join node's intermediate result in the state-structure registry
    for the stitch-up phase to reuse. *)

type t = {
  id : int;
  spec : Plan.spec;
  plan : Plan.t;
  mutable emitted : int;  (** root tuples this phase emitted *)
}

(** [keep] is the query's join layout rule ({!Plan.keep}), the same for
    every phase of one execution.  [record_outputs] defaults to true;
    pass false for executions that will never stitch (single-phase runs)
    to avoid materializing intermediates nobody can reuse.  [record_root]
    is {!Plan.instantiate}'s. *)
val create :
  ?record_outputs:bool ->
  ?record_root:bool ->
  id:int ->
  Ctx.t ->
  Plan.spec ->
  schema_of:(string -> Schema.t) ->
  keep:Plan.keep ->
  t

(** Register the phase's strictly intermediate join results (the root's
    output already reached the shared sink) under its plan id, as views
    of the plan's own records: O(plan nodes), copying no row. *)
val register : t -> Registry.t -> unit
