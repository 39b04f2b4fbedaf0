(** Zipf-distributed sampling over ranks [1..n].

    The skewed TPC-D dataset in the paper was generated with a Zipf factor
    z = 0.5 on the major attributes; this module reproduces that by sampling
    ranks with probability proportional to [1 / rank^z].  A draw [u] is
    mapped to the first rank whose cumulative probability reaches [u]; a
    guide table of [n] equal-width buckets over [u] brackets that rank,
    so a draw reads a few table entries instead of searching all [n]. *)

type t

(** [create ~n ~z] prepares a sampler over ranks 1..n with exponent [z >= 0]
    (z = 0 is uniform). *)
val create : n:int -> z:float -> t

val n : t -> int
val z : t -> float

(** Draw a rank in [1..n]. *)
val sample : t -> Prng.t -> int

(** Exact probability of a rank, for test assertions. *)
val prob : t -> int -> float
