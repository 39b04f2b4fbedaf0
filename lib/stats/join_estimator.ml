open Adp_relation

type side = {
  hist : Histogram.t;
  order : Order_detector.t;
  mutable min_v : float;
  mutable max_v : float;
}

let side () =
  { hist = Histogram.create ~buckets:50; order = Order_detector.create ();
    min_v = infinity; max_v = neg_infinity }

let observe s v =
  Histogram.add s.hist v;
  Order_detector.add s.order v;
  if not (Value.is_null v) then begin
    match v with
    | Value.Int _ | Value.Float _ | Value.Date _ ->
      let x = Value.to_float v in
      if x < s.min_v then s.min_v <- x;
      if x > s.max_v then s.max_v <- x
    | Value.Null | Value.Str _ -> ()
  end

let seen s = Histogram.count s.hist

(* A sorted stream's prefix covers only the low part of the attribute
   domain, so its histogram must not be treated as a random sample; the
   order detector tells us to extrapolate the range instead.  A strictly
   ascending stream is additionally a key (multiplicity 1). *)
let sorted order =
  Order_detector.count order >= 2
  && Order_detector.perfectly_sorted order
  && Order_detector.ascending_fraction order >= 0.5

let detected_sorted s = sorted s.order

let detected_key s = detected_sorted s && Order_detector.strictly_ascending s.order

let per_distinct ~seen d = if d <= 0.0 then 1.0 else float_of_int seen /. d

(* Multiplicity: average duplicates per distinct value in the prefix. *)
let multiplicity s =
  per_distinct ~seen:(seen s) (Histogram.estimate_distinct s.hist)

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
  let range s frac = extrapolated_range (s.min_v, s.max_v) frac in
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
    let scaled = Histogram.scale r.hist scale_r in
    Histogram.estimate_range scaled (Value.Float lo) (Value.Float hi)
    *. multiplicity l
  | false, true ->
    let lo, hi = range r fr in
    let scaled = Histogram.scale l.hist scale_l in
    Histogram.estimate_range scaled (Value.Float lo) (Value.Float hi)
    *. multiplicity r
  | false, false ->
    (* Neither sorted: the prefixes behave like random samples, so scaled
       histograms compose directly. *)
    Histogram.estimate_join
      (Histogram.scale l.hist scale_l)
      (Histogram.scale r.hist scale_r)
