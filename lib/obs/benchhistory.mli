(** Longitudinal benchmark store — the history behind
    [tukwila bench-history].

    Each run of a benchmark appends its [BENCH_<id>.json] document as
    one line of [<dir>/<id>.jsonl]: the {!Bjson} document plus a ["seq"]
    field (atomic rewrite).  {!render} draws the per-cell trend; gating
    the newest run against the earlier ones is {!Benchdiff.diff}. *)

type entry = { e_seq : int; e_doc : Bjson.doc }

(** [<dir>/<bench>.jsonl]. *)
val path : dir:string -> bench:string -> string

(** Entries oldest-first; [Ok []] when the file does not exist yet.
    [Error] carries the first offending line. *)
val load : string -> (entry list, string) result

(** Append [doc] to its history under [dir] (created if missing) and
    return the new entry's seq (1-based, monotonic). *)
val append : dir:string -> Bjson.doc -> (int, string) result

(** Trend table of the newest entry's cells: one sparkline per cell
    across the history, first/last/median values. *)
val render : Format.formatter -> entry list -> unit
