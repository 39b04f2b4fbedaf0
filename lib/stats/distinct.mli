open Adp_relation

(** Streaming distinct-value estimation.

    Exact counting through a hash set up to a configurable budget, then a
    linear-counting bitmap sketch (Whang et al.) — the low-overhead synopsis
    family the paper's §7 points at for predicting intermediate result
    sizes. *)

type t

(** [create ?exact_budget ?sketch_bits ()] — exact up to [exact_budget]
    distinct values (default 4096), then a [2^sketch_bits]-bit linear
    counter (default 16).
    @raise Invalid_argument if [sketch_bits < 3] (the bitmap would have
    no bytes). *)
val create : ?exact_budget:int -> ?sketch_bits:int -> unit -> t

val add : t -> Value.t -> unit

(** Current distinct estimate. *)
val estimate : t -> float

(** True while the estimate is exact. *)
val is_exact : t -> bool
