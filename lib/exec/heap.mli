(** Binary min-heap, used by the priority-queue tuple re-ordering router of
    §5 and by the server's event queue. *)

type 'a t

(** [create cmp] — min element according to [cmp] is popped first. *)
val create : ('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** @raise Invalid_argument when empty. *)
val pop : 'a t -> 'a

val peek : 'a t -> 'a option
