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

(** Whether a stream has been perfectly sorted ascending so far, over at
    least two values (its prefix covers only part of the domain, so the
    full range is extrapolated rather than the histogram scaled). *)
val sorted : Order_detector.t -> bool

(** {!sorted} over the side's order detector. *)
val detected_sorted : side -> bool

(** {!detected_sorted} and strictly ascending — a key. *)
val detected_key : side -> bool

(** Average duplicates per value when [seen] values showed [d] distinct. *)
val per_distinct : seen:int -> float -> float

(** Average duplicates per distinct value in the prefix. *)
val multiplicity : side -> float

(** [extrapolated_range (lo, hi) frac]: the full range of a sorted stream
    whose prefix covers [[lo, hi]] after a fraction [frac] of it, assuming
    the rest continues past [hi] at the same density. *)
val extrapolated_range : float * float -> float -> float * float

(** [sorted_overlap a b] predicts the equi-join size of two sorted
    streams, each given by its extrapolated range, expected total size
    and multiplicity [(lo, hi, total, multiplicity)]. *)
val sorted_overlap :
  float * float * float * float -> float * float * float * float -> float

(** [estimate ~left ~right] predicts the full equi-join output size, where
    each side is paired with the fraction of its stream consumed so far
    (in (0, 1]). *)
val estimate : left:side * float -> right:side * float -> float
