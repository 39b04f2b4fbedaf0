(** Deterministic splitmix64 pseudo-random generator.

    All workload generation is seeded through this module so that every
    experiment is exactly reproducible (the paper reruns each experiment 4+
    times; we instead fix seeds and report deterministic virtual-cost numbers
    alongside wall-clock times).

    The state is 8 unboxed bytes, so [int], [range], [bool] and [shuffle]
    allocate nothing and [float] only its result.  The generators built
    on it hand out shared immutable {!Adp_relation.Value.t} blocks (see
    {!Tpch}): a value drawn once may sit in many rows, so never mutate a
    value or compare values physically. *)

type t

val create : int -> t

(** Independent stream derived from [t]; advancing one does not perturb the
    other. *)
val split : t -> t

(** Uniform in [0, bound). @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform in [lo, hi] inclusive. *)
val range : t -> int -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

val bool : t -> bool

(** Exponentially distributed with the given mean. *)
val exponential : t -> mean:float -> float

(** Uniform choice from a non-empty array. *)
val choice : t -> 'a array -> 'a

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit
