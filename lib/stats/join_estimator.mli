open Adp_relation

(** Join-size prediction from stream prefixes (§4.5).

    The experiment in the paper shows that neither incremental histograms
    nor order detection alone predicts join output cardinality: histograms
    assume the prefix is a random sample (wrong for sorted data, where the
    prefix covers only part of the domain), and order detection only helps
    when the data is sorted.  Combining them works: a side whose stream is
    strictly ascending is modeled as a key whose full range is
    extrapolated from the seen prefix; other sides are modeled by scaling
    their histograms to the predicted full cardinality. *)

type side

(** [side ()] creates the per-stream summary: a 50-bucket histogram, the
    paper's size, and an order detector. *)
val side : unit -> side

(** Observe the join attribute of one arriving tuple. *)
val observe : side -> Value.t -> unit

(** Values seen so far. *)
val seen : side -> int

(** Whether the stream has been perfectly sorted ascending so far (its
    prefix covers only part of the domain, so the full range is
    extrapolated rather than the histogram scaled). *)
val detected_sorted : side -> bool

(** {!detected_sorted} and strictly ascending — a key. *)
val detected_key : side -> bool

(** Average duplicates per distinct value in the prefix. *)
val multiplicity : side -> float

(** [estimate ~left ~right] predicts the full equi-join output size, where
    each side is paired with the fraction of its stream consumed so far
    (in (0, 1]). *)
val estimate : left:side * float -> right:side * float -> float
