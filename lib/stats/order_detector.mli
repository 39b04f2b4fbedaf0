open Adp_relation

(** Streaming order detection (§4.5, §5).

    Watches an attribute stream and reports whether it is ascending,
    descending, or unsorted, how sorted it is (fraction of in-order adjacent
    pairs), and — in the special case of a strictly ascending stream —
    whether the attribute is so far unique (a candidate key, which the
    cardinality estimator exploits). *)

type verdict = Ascending | Descending | Unsorted

type t

val create : unit -> t

val add : t -> Value.t -> unit

val count : t -> int

(** Verdict once at least two values have been seen; a stream is declared
    [Unsorted] when the in-order fraction drops below 0.95. *)
val verdict : t -> verdict

(** Fraction of adjacent pairs in ascending order (1.0 until two values are
    seen). *)
val ascending_fraction : t -> float

(** True while the stream has been strictly ascending — implies all values
    distinct. *)
val strictly_ascending : t -> bool

(** True when no adjacent violation has occurred yet in either direction.
    Once the stream has taken both a strictly ascending and a strictly
    descending step this is false for good. *)
val perfectly_sorted : t -> bool
