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
let detected_sorted s =
  Order_detector.count s.order >= 2
  && Order_detector.perfectly_sorted s.order
  && Order_detector.ascending_fraction s.order >= 0.5

let detected_key s = detected_sorted s && Order_detector.strictly_ascending s.order

(* Multiplicity: average duplicates per distinct value in the prefix. *)
let multiplicity s =
  let d = Histogram.estimate_distinct s.hist in
  if d <= 0.0 then 1.0 else float_of_int (seen s) /. d

(* Predicted full range of a sorted stream: the prefix covers [min, max];
   the remaining (1 - frac) continues past max at the same density. *)
let extrapolated_range s frac =
  let span = s.max_v -. s.min_v in
  s.min_v, s.min_v +. (span /. max frac 1e-6)

let estimate ~left:(l, fl) ~right:(r, fr) =
  let scale_l = 1.0 /. max fl 1e-6 and scale_r = 1.0 /. max fr 1e-6 in
  match detected_sorted l, detected_sorted r with
  | true, true ->
    (* Both sorted: matches live in the overlap of the predicted ranges;
       per unit of range, each side contributes its value density times
       its multiplicity. *)
    let lo1, hi1 = extrapolated_range l fl
    and lo2, hi2 = extrapolated_range r fr in
    let lo = max lo1 lo2 and hi = min hi1 hi2 in
    if hi < lo then 0.0
    else begin
      let dens1 =
        float_of_int (seen l) *. scale_l /. max 1.0 (hi1 -. lo1)
      in
      let dens2 =
        float_of_int (seen r) *. scale_r /. max 1.0 (hi2 -. lo2)
      in
      (* Distinct-value density is bounded by the sparser side; each
         common value pairs multiplicities. *)
      let m1 = multiplicity l and m2 = multiplicity r in
      let key_density = min (dens1 /. m1) (dens2 /. m2) in
      (hi -. lo) *. key_density *. m1 *. m2
    end
  | true, false ->
    (* Left sorted: right tuples falling in the predicted range match
       [multiplicity l] times each. *)
    let lo, hi = extrapolated_range l fl in
    let scaled = Histogram.scale r.hist scale_r in
    Histogram.estimate_range scaled (Value.Float lo) (Value.Float hi)
    *. multiplicity l
  | false, true ->
    let lo, hi = extrapolated_range r fr in
    let scaled = Histogram.scale l.hist scale_l in
    Histogram.estimate_range scaled (Value.Float lo) (Value.Float hi)
    *. multiplicity r
  | false, false ->
    (* Neither sorted: the prefixes behave like random samples, so scaled
       histograms compose directly. *)
    Histogram.estimate_join
      (Histogram.scale l.hist scale_l)
      (Histogram.scale r.hist scale_r)
