(** Comparison of {!Bjson} documents — the one comparator behind
    [tukwila bench-diff] (a committed baseline as the only prior) and
    [tukwila bench-history --gate] (the earlier runs as priors).

    [time] cells gate within a relative tolerance of the {e median of
    the priors} that share the current bench id and scale.  Everything else compares against the most recent
    prior: bench id, scale and cell shape must agree, kinds must not
    change, non-finite values are breaches, [count]/[bool] cells must
    match exactly, and two values at or below 1 ns compare equal.
    Every cell is deterministic under the virtual clock; wall-clock
    time is perfbench's to judge. *)

type outcome = {
  o_bench : string;
  o_gated : int;  (** cells compared under a gate *)
  o_breaches : string list;  (** printable breach lines; empty = pass *)
}

(** Upper median of a non-empty list: the middle element after sorting,
    the upper of the two middle ones for an even length. *)
val median : float list -> float

(** [diff ~priors ~current ()] gates [current] cell-by-cell against
    [priors] (oldest first; raises [Invalid_argument] when empty).
    [Error _] means the documents are not comparable — bench id
    mismatch, scale mismatch, or a cell {e shape} mismatch (any id
    missing from or extra to the most recent prior, reported as sorted
    lists) — distinct from a value breach: the CLI exits 2 on [Error]
    and 1 on breaches.  [time_tol] defaults to 0.10. *)
val diff :
  ?time_tol:float ->
  priors:Bjson.doc list ->
  current:Bjson.doc ->
  unit ->
  (outcome, string) result
