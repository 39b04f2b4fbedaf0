(** The [BENCH_<id>.json] schema (version 1) shared by the benchmark
    harness, [tukwila bench-diff] and the tests.

    A document is a bench id, the TPC scale factor it ran at, and a list
    of cells with unique ids.  Every cell is deterministic under the
    virtual clock, so {!Benchdiff} requires each kind ([Time], [Count],
    [Bool]) to match its baseline exactly; wall-clock numbers are
    printed, never stored. *)

type kind = Time | Count | Bool

type cell = { id : string; kind : kind; value : float }

type doc = { bench : string; scale : float; cells : cell list }

(** {2 Cell constructors} *)

val time : string -> float -> cell
val count : string -> int -> cell

(** A [Count]-kind cell holding a non-integer exact value. *)
val num : string -> float -> cell

val flag : string -> bool -> cell

val kind_name : kind -> string
val kind_of_name : string -> kind option

(** Path-like slug for cell ids: lowercase, [[a-z0-9./%+-]] kept,
    everything else collapsed to ['-']. *)
val slug : string -> string

(** {2 Serialization} *)

val to_string : doc -> string

(** [Error] on a bad schema version, a missing field, a cell id that
    appears twice, or a cell of an unknown kind (naming the cell id) —
    including the retired ["wall"] kind, so a stale baseline fails to
    load instead of being skipped. *)
val of_json : Json.t -> (doc, string) result
val of_string : string -> (doc, string) result
val load : string -> (doc, string) result
