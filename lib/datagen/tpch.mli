open Adp_relation

(** TPC-H-style dataset generator.

    The paper evaluates on TPC-H scale factor 0.1 (uniform, from dbgen) and
    on a same-sized skewed variant produced with a TPC-D generator using Zipf
    factor z = 0.5 on the major attributes.  This module generates both
    in-process: the same table shapes, primary-key / foreign-key structure
    and selection attributes, at a configurable scale factor.

    Generated base tables come out sorted by primary key (as dbgen emits
    them), which is what makes the complementary-join speculation of §5
    plausible; use {!Perturb} to destroy order.

    Rows share their repeated values: every key, small int, date,
    categorical string and small-domain float is one immutable
    {!Value.t} block per dataset, held by every row that has that value
    (an order's [o_orderkey] is the very block of its lineitems'
    [l_orderkey]).  Never mutate a value in place or compare values
    physically; compare with {!Value.equal}/{!Value.compare}.

    Cardinalities at scale factor [sf]: REGION 5, NATION 25, SUPPLIER
    10,000·sf, CUSTOMER 150,000·sf, ORDERS 10 per customer, LINEITEM 1–7 per
    order. *)

type distribution =
  | Uniform
  | Skewed of float  (** Zipf z on foreign keys and value attributes *)

type config = {
  scale : float;  (** TPC-H scale factor; 0.1 reproduces the paper *)
  distribution : distribution;
  seed : int;
}

val default_config : config
(** [scale = 0.01], [Uniform], seed 42. *)

type t = {
  config : config;
  region : Relation.t;
  nation : Relation.t;
  supplier : Relation.t;
  customer : Relation.t;
  orders : Relation.t;
  lineitem : Relation.t;
}

val generate : config -> t

(** Look up a base table by its TPC-H name ("region", ..., "lineitem").
    @raise Not_found on unknown names. *)
val table : t -> string -> Relation.t

val table_names : string list

(** Schema of a base table without generating data. *)
val schema_of : string -> Schema.t

(** Primary-key column of a base table (["lineitem"] has a composite key;
    this returns the l_orderkey prefix, which is what join analysis needs). *)
val key_of : string -> string
