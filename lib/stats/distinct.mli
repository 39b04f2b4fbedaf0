open Adp_relation

(** Streaming distinct-value estimation.

    Exact counting through a hash set up to 4,096 distinct values, then a
    2^16-bit linear-counting bitmap sketch (Whang et al.) — the low-overhead synopsis
    family the paper's §7 points at for predicting intermediate result
    sizes. *)

type t

val create : unit -> t

val add : t -> Value.t -> unit

(** Current distinct estimate. *)
val estimate : t -> float

(** True while the estimate is exact. *)
val is_exact : t -> bool
