open Adp_relation
open Adp_exec
open Adp_optimizer

(** The shared query sink: Figure 1's "shared group-by operator".

    All phase plans and the stitch-up plan of one query feed the same sink.
    Because different plan shapes concatenate attributes in different
    orders, the sink fixes a canonical schema (the first plan's root
    schema) and reads every feed through a view of it cached per feeding
    schema (§3.2's tuple adapters, applied without copying): aggregation
    queries run a blocking hash aggregate, compiled against the feeding
    schema, that coalesces raw or partial (pre-aggregated) inputs; pure
    SPJ queries collect, copying each tuple once through the permutation
    composed with the projection. *)

type t

(** [create ctx q ~canonical] — [canonical] is the root schema of the
    first plan instantiated for [q]. *)
val create : Ctx.t -> Logical.query -> canonical:Schema.t -> t

(** Feed root output tuples produced under schema [from].
    @raise Invalid_argument if [from] and the canonical schema have
    different column sets. *)
val feed : t -> from:Schema.t -> Tuple.t list -> unit

(** [stream t ~from] feeds one tuple at a time as {!feed} does, but
    leaves its charges to [settle t n], which makes those of [n] tuples:
    stream tuples as they are produced, then settle, and the clock ends
    as after one {!feed} of them all. *)
val stream : t -> from:Schema.t -> Tuple.t -> unit
val settle : t -> int -> unit

(** Finalized query result. *)
val result : t -> Relation.t
