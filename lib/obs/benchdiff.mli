(** Variance-aware comparison of {!Bjson} documents — the one comparator
    behind [tukwila bench-diff] (a committed baseline as the only prior)
    and [tukwila bench-history --gate] (the earlier runs as priors).

    [time] cells gate within a relative tolerance of the {e median of
    the priors} that share the current bench id and scale.  Everything else compares against the most recent
    prior: bench id, scale and cell shape must agree, kinds must not
    change, non-finite values are breaches, [count]/[bool] cells must
    match exactly, and two values at or below 1 ns compare equal.

    Wall cells gate only as repetition trios
    ([<base>-wall-min]/[-median]/[-p95] present in both documents):
    median-vs-median, one-sided (only slowdowns breach), under an
    effective tolerance [max(wall_tol, 2 * max(spread_base,
    spread_new))] where a document's spread is [(p95 - min) /
    max(median, 5ms)].  Trios with both medians under the 5 ms noise
    floor, and lone wall cells, are informational. *)

type outcome = {
  o_bench : string;
  o_gated : int;  (** deterministic cells compared under a gate *)
  o_wall_gated : int;  (** wall medians gated variance-aware *)
  o_wall_info : int;  (** wall cells that stayed informational *)
  o_breaches : string list;  (** printable breach lines; empty = pass *)
  o_notes : string list;  (** non-gating observations *)
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
    and 1 on breaches.  [time_tol] defaults to 0.10, [wall_tol] to
    0.5. *)
val diff :
  ?time_tol:float ->
  ?wall_tol:float ->
  priors:Bjson.doc list ->
  current:Bjson.doc ->
  unit ->
  (outcome, string) result
