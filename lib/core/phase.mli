open Adp_relation
open Adp_exec

(** One execution phase of adaptive data partitioning (§2.1, §3).

    A phase is a plan instance plus the region of source data it consumed:
    the k-th phase reads the sources from wherever phase k−1 stopped, so
    each base relation R is implicitly partitioned into R⁰, R¹, … Rⁿ.  On
    completion (exhaustion or mid-stream suspension) the phase's plan
    still holds every join node's intermediate result: the closed phases'
    plans are §3.4.2's registry, which the stitch-up phase reads in place
    ({!Stitchup.registered}).  A closed phase also records what it read
    and where its region ends, the ledger entry a checkpoint keeps for
    it. *)

type t = {
  id : int;
  spec : Plan.spec;
  plan : Plan.t;
  mutable emitted : int;  (** root tuples this phase emitted *)
  mutable read : int;  (** source tuples this phase read; set at close *)
  mutable ends : (string * int) list;
      (** each source's position where this phase's region ends; set at
          close *)
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
