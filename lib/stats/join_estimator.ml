open Adp_relation

type range = { mutable lo : float; mutable hi : float }  (* flat floats *)

(* Every field but [hist] is read only while the column is perfectly
   sorted; once it has stepped both up and down it never is again, so
   [live] drops and those fields stop being fed. *)
type side = {
  hist : Histogram.t option;
  order : Order_detector.t;
  distinct : Distinct.t;
  range : range;
  mutable live : bool;
}

let side ~use_histograms =
  { hist =
      (if use_histograms then Some (Histogram.create ~buckets:50) else None);
    order = Order_detector.create (); distinct = Distinct.create ();
    range = { lo = infinity; hi = neg_infinity }; live = true }

let widen r x =
  if x < r.lo then r.lo <- x;
  if x > r.hi then r.hi <- x

let track s v =
  Order_detector.add s.order v;
  if not (Order_detector.perfectly_sorted s.order) then s.live <- false
  else begin
    Distinct.add s.distinct v;
    match v with
    | Value.Int i | Value.Date i -> widen s.range (float_of_int i)
    | Value.Float x -> widen s.range x
    | Value.Null | Value.Str _ -> ()
  end

let observe s v =
  (match s.hist with Some h -> Histogram.add h v | None -> ());
  if s.live then track s v

(* Without a histogram, a column no longer sorted costs one flag test. *)
let column_observer s idx ~on_hist =
  match s.hist with
  | None -> fun (t : Tuple.t) -> if s.live then track s t.(idx)
  | Some _ ->
    fun t ->
      on_hist ();
      observe s t.(idx)

(* The one failing path: [multiplicity] and [estimate] on a side built
   without a histogram. *)
let hist s =
  match s.hist with
  | Some h -> h
  | None -> invalid_arg "Join_estimator: side keeps no histogram"

let seen s = Histogram.count (hist s)

(* A sorted stream's prefix covers only the low part of the attribute
   domain, so its histogram must not be treated as a random sample; the
   order detector tells us to extrapolate the range instead.  A strictly
   ascending stream is additionally a key (multiplicity 1). *)
let detected_sorted s =
  Order_detector.count s.order >= 2
  && Order_detector.perfectly_sorted s.order
  && Order_detector.ascending_fraction s.order >= 0.5

let detected_key s = detected_sorted s && Order_detector.strictly_ascending s.order

let sorted_range s = s.range.lo, s.range.hi

let per_distinct ~seen d = if d <= 0.0 then 1.0 else float_of_int seen /. d

let sorted_multiplicity s =
  per_distinct ~seen:(Order_detector.count s.order)
    (Distinct.estimate s.distinct)

(* Multiplicity: average duplicates per distinct value in the prefix. *)
let multiplicity s =
  per_distinct ~seen:(seen s) (Histogram.estimate_distinct (hist s))

(* Predicted full range of a sorted stream: the prefix covers [lo, hi];
   the remaining (1 - frac) continues past hi at the same density. *)
let extrapolated_range (lo, hi) frac = lo, lo +. ((hi -. lo) /. max frac 1e-6)

(* Both sorted: matches live in the overlap of the predicted ranges; per
   unit of range, each side contributes its value density times its
   multiplicity.  Distinct-value density is bounded by the sparser side;
   each common value pairs multiplicities. *)
let sorted_overlap (lo1, hi1, total1, m1) (lo2, hi2, total2, m2) =
  let lo = max lo1 lo2 and hi = min hi1 hi2 in
  if hi < lo then 0.0
  else begin
    let dens1 = total1 /. max 1.0 (hi1 -. lo1)
    and dens2 = total2 /. max 1.0 (hi2 -. lo2) in
    let key_density = min (dens1 /. m1) (dens2 /. m2) in
    (hi -. lo) *. key_density *. m1 *. m2
  end

let estimate ~left:(l, fl) ~right:(r, fr) =
  let scale_l = 1.0 /. max fl 1e-6 and scale_r = 1.0 /. max fr 1e-6 in
  let range s frac = extrapolated_range (sorted_range s) frac in
  match detected_sorted l, detected_sorted r with
  | true, true ->
    let side s frac scale =
      let lo, hi = range s frac in
      (lo, hi, float_of_int (seen s) *. scale, multiplicity s)
    in
    sorted_overlap (side l fl scale_l) (side r fr scale_r)
  | true, false ->
    (* Left sorted: right tuples falling in the predicted range match
       [multiplicity l] times each. *)
    let lo, hi = range l fl in
    let scaled = Histogram.scale (hist r) scale_r in
    Histogram.estimate_range scaled (Value.Float lo) (Value.Float hi)
    *. multiplicity l
  | false, true ->
    let lo, hi = range r fr in
    let scaled = Histogram.scale (hist l) scale_l in
    Histogram.estimate_range scaled (Value.Float lo) (Value.Float hi)
    *. multiplicity r
  | false, false ->
    (* Neither sorted: the prefixes behave like random samples, so scaled
       histograms compose directly. *)
    Histogram.estimate_join
      (Histogram.scale (hist l) scale_l)
      (Histogram.scale (hist r) scale_r)
