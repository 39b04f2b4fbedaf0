open Adp_relation

(** Multimap hash table from composite keys to tuples — the state structure
    behind pipelined hash joins, hybrid hash joins, aggregation, and
    stitch-up reuse.

    The table knows which columns of its tuples form the key and exposes
    its contents for sharing across plans (§3.1 "exposing state").

    Overflow: {!swap_out}/{!swap_in} model spilling to disk.  Contents stay
    addressable (this is a simulation, not an actual spill); the flag is
    consulted by the cost model, which charges I/O for probes against
    swapped structures, and by the memory-pressure heuristic of §3.4.2.

    A table with one key column is keyed by the {!Value.t} itself, hashed
    as [Tuple.hash_key [| v |]]: inserts and probes read the column in
    place, and bucket layout (so {!iter} order) equals a composite-keyed
    table's.

    Layout contract.  The table is chained, and each entry keeps its key's
    hash ([Tuple.hash_key] of the key columns), so growth never re-hashes
    and a lookup compares keys ({!Value.equal}, {!Tuple.equal_key}) only
    when the stored hash matches.  The layout is exactly that of a
    [Hashtbl.Make] table over the same hash and equality, filled by
    [find_opt]/[add]:
    - bucket index [hash land max_int mod size];
    - initial size [power_2_above 16 n]: 256 for {!create}, the input
      length for {!of_list};
    - a new key goes at the head of its bucket, and a key's rows are kept
      newest first;
    - the bucket array doubles when keys exceed twice its size, relinking
      each chain in order;
    - {!clear} shrinks back to the initial size, as [Hashtbl.reset] does.
    {!iter} and {!to_list} therefore visit tuples in the stdlib table's
    order.  [Comp_join] and checkpoint restore see that order, and the
    virtual clock depends on it.  {!of_list} sizes its table from its
    input, which changes iteration order but not what a probe returns, so
    stitch-up, which only probes, may use a phase's live table or an
    {!of_list} table over the same tuples alike.  Inserting into a table
    while iterating it is unspecified.

    NULL rule.  Probes follow SQL equality: a probe key that is NULL, or
    has a NULL column, matches nothing ({!probe}, {!probe_value},
    {!probe_tuple}, {!insert_probe}).  Inserts still store such tuples,
    under one key as [Value.equal] groups them, so {!length}, {!iter},
    {!distinct_keys} and rebuilds see them. *)

type t

(** [create schema ~key_cols] with [key_cols] resolvable in [schema]. *)
val create : Schema.t -> key_cols:string list -> t

val length : t -> int

val insert : t -> Tuple.t -> unit

(** [of_list schema ~key_cols tuples] inserts [tuples], in order, into a
    table pre-sized for them. *)
val of_list : Schema.t -> key_cols:string list -> Tuple.t list -> t

(** Matches for the probe key (most recently inserted first). *)
val probe : t -> Value.t array -> Tuple.t list

(** [probe_tuple t tuple cols] is [probe t (Tuple.key tuple cols)]. *)
val probe_tuple : t -> Tuple.t -> int array -> Tuple.t list

(** [probe_value t v] is [probe t [| v |]]. *)
val probe_value : t -> Value.t -> Tuple.t list

(** [insert_probe t tuple ~probe] is [insert t tuple] then
    [probe probe (key_of t tuple)], computing and hashing the key once. *)
val insert_probe : t -> Tuple.t -> probe:t -> Tuple.t list

(** Key of a tuple under this table's key columns. *)
val key_of : t -> Tuple.t -> Value.t array

val iter : (Tuple.t -> unit) -> t -> unit
val to_list : t -> Tuple.t list

(** Number of distinct keys currently present. *)
val distinct_keys : t -> int

val swap_out : t -> unit
val swap_in : t -> unit
val swapped : t -> bool

val clear : t -> unit
