(** Comparison of a {!Bjson} document against its committed baseline —
    the comparator behind [tukwila bench-diff].

    Every cell is deterministic under the virtual clock, so there is one
    rule: bench id, scale and cell shape must agree, kinds must not
    change, non-finite values are breaches, and every value must match
    the baseline exactly, except that two values at or below 1 ns
    compare equal.  Wall-clock time is perfbench's to judge. *)

type outcome = {
  o_bench : string;
  o_gated : int;  (** cells compared under the gate *)
  o_breaches : string list;  (** printable breach lines; empty = pass *)
}

(** [diff ~baseline ~current] gates [current] cell-by-cell against
    [baseline].  [Error _] means the documents are not comparable —
    bench id mismatch, scale mismatch, or a cell {e shape} mismatch (any
    id missing from or extra to the baseline, reported as sorted lists)
    — distinct from a value breach: the CLI exits 2 on [Error] and 1 on
    breaches. *)
val diff :
  baseline:Bjson.doc -> current:Bjson.doc -> (outcome, string) result
