open Adp_relation

(** Multimap hash table from composite keys to tuples — the state structure
    behind pipelined hash joins, hybrid hash joins, aggregation, and
    stitch-up reuse.

    The table knows which columns of its tuples form the key and exposes
    its contents for sharing across plans (§3.1 "exposing state").

    Row log.  Each row is stored once, in an append-only
    {!Row_log} kept in insertion order: a join inserts every tuple its
    child emits, in emission order, so the log of a join's table {e is}
    that child's output record ({!view}).  A key's entry holds the id of
    its newest row, and the log keeps beside each row an unboxed [int]
    that chains it to the previous row with the same key.

    Lazy links.  {!insert} only appends to the log.  The next read
    through the index ({!probe}, {!probe_value}, {!probe_tuple},
    {!group}, the probed side of {!insert_probe}, {!iter}, {!to_list},
    {!distinct_keys}) first links the pending rows, oldest first, so
    layout and order are eager insertion's.  A table no such read
    reaches, like a join side whose other input has finished, holds only
    its log; {!length} and {!view} link nothing.

    Cursors.  A probe returns a cursor rather than a list: the id of the
    key's newest matching row, or [-1] when nothing matches.  {!row}
    reads a cursor's row and {!next} moves it to the next older match, so
    a probe walks its matches in place, newest first, with no list and,
    when [walk] is a top-level function, no closure:
    {[
      let rec walk tbl cur =
        if cur >= 0 then begin
          use (Hash_table.row tbl cur);
          walk tbl (Hash_table.next tbl cur)
        end
      (* ... *)
      walk tbl (Hash_table.probe_tuple tbl tuple cols)
    ]}
    A cursor stays valid while the table grows, and until {!clear}.

    Overflow: {!swap_out}/{!swap_in} model spilling to disk.  Contents stay
    addressable (this is a simulation, not an actual spill); the flag is
    consulted by the cost model, which charges I/O for probes against
    swapped structures, and by the memory-pressure heuristic of §3.4.2.

    A table with one key column is keyed by the {!Value.t} itself, hashed
    as [Tuple.hash_key [| v |]]: inserts and probes read the column in
    place, and bucket layout (so {!iter} order) equals a composite-keyed
    table's.

    Layout and order contract.  The table is chained, and each entry
    keeps its key's hash ([Tuple.hash_key] of the key columns), so growth
    never re-hashes and a lookup compares keys ({!Value.equal},
    {!Tuple.equal_key}) only when the stored hash matches.  The layout is
    exactly that of a [Hashtbl.Make] table over the same hash and
    equality, filled by [find_opt]/[add]:
    - bucket index [hash land max_int mod size];
    - initial size [power_2_above 16 n]: 256 for {!create}, the input
      length for {!of_view};
    - a new key goes at the head of its bucket, and a key's rows are kept
      newest first;
    - the bucket array doubles when keys exceed twice its size, relinking
      each chain in order;
    - {!clear} shrinks back to the initial size, as [Hashtbl.reset] does.
    {!iter} visits tuples in the stdlib table's order, and {!to_list}
    returns them in the reverse of that order, as [Hashtbl.fold] does.
    [Comp_join] and checkpoint restore see that order, and the virtual
    clock depends on it.  A probe's cursor visits a key's rows newest
    first, and {!view} lists every row oldest first.  {!of_view} sizes
    its table from its input, which changes iteration order but not what
    a probe visits, so stitch-up, which only probes, may use a phase's
    live table or an {!of_view} table over the same tuples alike.
    Inserting into a table while iterating it is unspecified.

    NULL rule.  Probes follow SQL equality: a probe key that is NULL, or
    has a NULL column, matches nothing ({!probe}, {!probe_value},
    {!probe_tuple}, {!insert_probe} return [-1]).  Inserts still store
    such tuples, under one key as [Value.equal] groups them, so
    {!length}, {!iter}, {!view} and {!distinct_keys} see them.  The
    GROUP BY lookup {!group} finds them too: grouping puts NULL with
    NULL, so a table of one row per group, inserted first-seen, keeps its
    groups in its {!view}'s order. *)

type t

(** [create schema ~key_cols] with [key_cols] resolvable in [schema]. *)
val create : Schema.t -> key_cols:string list -> t

val length : t -> int

val insert : t -> Tuple.t -> unit

(** [of_view schema ~key_cols rows] inserts [rows], oldest first, into a
    table pre-sized for them.  Its cursors are the rows' positions in
    [rows], 0 for the oldest. *)
val of_view : Schema.t -> key_cols:string list -> Row_log.view -> t

(** Cursor at the newest row whose key is the probe key, or [-1]. *)
val probe : t -> Value.t array -> int

(** [probe_tuple t tuple cols] is [probe t (Tuple.key tuple cols)]. *)
val probe_tuple : t -> Tuple.t -> int array -> int

(** [probe_value t v] is [probe t [| v |]]. *)
val probe_value : t -> Value.t -> int

(** [group t tuple cols] is [probe_tuple t tuple cols] under GROUP BY's
    equality, where NULL equals NULL: the cursor at the newest row whose
    key is [tuple]'s [cols], or [-1]. *)
val group : t -> Tuple.t -> int array -> int

(** [insert_probe t tuple ~probe] is [insert t tuple] then
    [probe probe (key_of t tuple)]: one join side.  [t] links the tuple
    when it is next read, hashing its key again.  The cursor is into
    [probe]. *)
val insert_probe : t -> Tuple.t -> probe:t -> int

(** The row at a cursor ([>= 0]). *)
val row : t -> int -> Tuple.t

(** The cursor at the next older row with the same key, or [-1]. *)
val next : t -> int -> int

(** How many rows a walk from this cursor visits. *)
val count : t -> int -> int

(** Key of a tuple under this table's key columns. *)
val key_of : t -> Tuple.t -> Value.t array

val iter : (Tuple.t -> unit) -> t -> unit
val to_list : t -> Tuple.t list

(** Every row, oldest first, shared with the table: a snapshot that
    later inserts and {!clear} leave as it is. *)
val view : t -> Row_log.view

(** Number of distinct keys currently present. *)
val distinct_keys : t -> int

val swap_out : t -> unit
val swap_in : t -> unit
val swapped : t -> bool

val clear : t -> unit
