open Adp_relation

(** An append-only log of tuples in insertion order: the one place a
    join side's rows are stored, and the output record of a plan node no
    join holds.

    The log is a list of chunks that it never copies as it grows.  The
    first chunk holds [first] rows; each later chunk is twice the size of
    the one before, up to 4096 rows, so a small log stays small and a
    large one allocates a bounded amount per chunk.

    Each row has an id, which stays valid for the life of the log.  Ids
    are not dense: an id names a chunk and an offset within it.  A linked
    log also keeps an unboxed [int] beside each row, which
    {!Hash_table} uses to chain a row to the previous row with the same
    key ([-1] for none).

    A {!view} is the log's first [n] rows, taken in O(1) without a copy.
    Appends never touch a row that is already in the log, so a view is a
    snapshot: later appends do not change it. *)

type t

(** [create ?first ~linked ()] is an empty log whose first chunk holds
    [first] rows (default 16), clamped to [1 .. 4096].  Chunks are
    allocated when a row first needs them. *)
val create : ?first:int -> linked:bool -> unit -> t

val length : t -> int

(** [push t row] appends [row] and returns its id. *)
val push : t -> Tuple.t -> int

(** [push_linked t row link] appends [row] with [link] beside it and
    returns its id.
    @raise Invalid_argument on a log created with [~linked:false]. *)
val push_linked : t -> Tuple.t -> int -> int

(** The row with this id. *)
val get : t -> int -> Tuple.t

(** The link stored beside the row with this id. *)
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

(** [of_view v] is a fresh, unlinked log holding a copy of [v]'s rows,
    for a restored plan to append to. *)
val of_view : view -> t
