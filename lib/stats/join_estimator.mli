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

(** The one summary of a join column, fed one value per arriving tuple.
    While the column has stayed perfectly sorted it keeps an order
    detector, a distinct sketch and the value range; the first value that
    breaks the order stops all three for good, since every reader needs
    the column sorted.  With [use_histograms] it also keeps a 50-bucket
    histogram, the paper's size, over every value.  Only {!multiplicity}
    and {!estimate} read that histogram; on a side built without one they
    raise [Invalid_argument], and nothing else here fails. *)
type side

val side : use_histograms:bool -> side

(** Observe the join attribute of one arriving tuple. *)
val observe : side -> Value.t -> unit

(** [column_observer s i ~on_hist] observes column [i] of each tuple it
    is given, calling [on_hist] first for each value the histogram takes
    (the caller's charge for it).  Once the column is unsorted and when
    [s] keeps no histogram, a call costs one flag test. *)
val column_observer : side -> int -> on_hist:(unit -> unit) -> Tuple.t -> unit

(** Whether the stream has been perfectly sorted ascending so far, over
    at least two values (its prefix covers only part of the domain, so
    the full range is extrapolated rather than the histogram scaled). *)
val detected_sorted : side -> bool

(** {!detected_sorted} and strictly ascending — a key. *)
val detected_key : side -> bool

(** The [(lo, hi)] range of the numeric values seen while sorted. *)
val sorted_range : side -> float * float

(** Average duplicates per value over the sorted prefix: the order
    detector's count over the distinct sketch's estimate. *)
val sorted_multiplicity : side -> float

(** Average duplicates per distinct value in the prefix, by the
    histogram (see {!side} for a side without one). *)
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
