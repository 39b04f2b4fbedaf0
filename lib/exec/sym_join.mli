open Adp_relation
open Adp_storage

(** Symmetric streaming binary equi-join.

    In [`Hash] mode this is the pipelined (symmetric) hash join: each
    arriving tuple is buffered in its side's hash table and probed against
    the opposite table, so every matching pair is emitted exactly once, by
    whichever tuple arrives later.

    In [`Merge] mode it is the streaming merge join of §5: both inputs
    must arrive in key order ({!accepts} tells the router whether a tuple
    conforms); tuples are stored in hash tables over sorted data, and
    probes are charged at the merge join's (cheaper) rate.

    Both modes expose their side tables so that complementary join pairs
    can run their mini stitch-up across operators, and so that plans can
    share state structures (§3.1). *)

type side = L | R

type t

val create :
  Ctx.t ->
  mode:[ `Hash | `Merge ] ->
  left_schema:Schema.t ->
  right_schema:Schema.t ->
  left_key:string list ->
  right_key:string list ->
  t

(** Whether inserting the tuple on that side is legal (always true in
    [`Hash] mode; in-order check in [`Merge] mode). *)
val accepts : t -> side -> Tuple.t -> bool

(** Insert and return the join outputs produced.
    @raise Invalid_argument on out-of-order [`Merge] insertion. *)
val insert : t -> side -> Tuple.t -> Tuple.t list

val left_table : t -> Hash_table.t
val right_table : t -> Hash_table.t

(** Join output count so far. *)
val out_count : t -> int
