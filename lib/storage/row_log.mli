open Adp_relation

(** An append-only log of tuples in insertion order: the one place a
    join side's rows are stored, and the output record of a plan node no
    join holds.

    The log is a list of chunks that it never copies as it grows.  The
    first chunk holds [first] rows; each later chunk is twice the size of
    the one before, up to 4096 rows, so a small log stays small and a
    large one allocates a bounded amount per chunk.

    Each row has an id, which stays valid for the life of the log.  Ids
    are not dense: an id names a chunk and an offset within it, and they
    grow in push order.  A row may also carry an unboxed [int] link,
    which {!Hash_table} uses to chain it to the previous row with the
    same key ([-1] for none).  A chunk's link array exists once a link
    has been set in that chunk, so a log whose links are never set holds
    only its rows.

    A {!view} is the log's first [n] rows, taken in O(1) without a copy.
    Appends never touch a row that is already in the log, so a view is a
    snapshot: later appends do not change it. *)

type t

(** [create ?first ()] is an empty log whose first chunk holds [first]
    rows (default 16), clamped to [1 .. 4096].  Chunks are allocated when
    a row first needs them. *)
val create : ?first:int -> unit -> t

val length : t -> int

(** [push t row] appends [row] and returns its id. *)
val push : t -> Tuple.t -> int

(** [succ t id] is the id of the row pushed after the row with id [id],
    whether or not it has been pushed yet. *)
val succ : t -> int -> int

(** The row with this id. *)
val get : t -> int -> Tuple.t

(** [set_link t id link] stores [link] beside the row with id [id],
    allocating the link array of that row's chunk if it has none. *)
val set_link : t -> int -> int -> unit

(** The link last set beside the row with this id.  Unspecified for a
    row whose link was never set. *)
val link : t -> int -> int

(** {2 Views} *)

type view

(** The log's rows as they are now, shared. *)
val view : t -> view

(** A view of the given rows, oldest first (decoding, tests). *)
val view_of_list : Tuple.t list -> view

val view_length : view -> int

(** Oldest first. *)
val view_iter : (Tuple.t -> unit) -> view -> unit

(** Newest first. *)
val view_rev_iter : (Tuple.t -> unit) -> view -> unit

(** Oldest first. *)
val view_to_list : view -> Tuple.t list

(** [of_view v] is a fresh log with no links, holding a copy of [v]'s
    rows, for a restored plan to append to. *)
val of_view : view -> t
