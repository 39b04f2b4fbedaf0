open Adp_relation

type verdict = Ascending | Descending | Unsorted

(* [last] is meaningful only once [seen > 0]; keeping it in place (no
   option) means an add allocates nothing. *)
type t = {
  mutable seen : int;
  mutable last : Value.t;
  mutable asc_pairs : int;
  mutable desc_pairs : int;
  mutable strict_asc : bool;
}

let create () =
  { seen = 0; last = Value.Null; asc_pairs = 0; desc_pairs = 0;
    strict_asc = true }

let add t v =
  if t.seen > 0 then begin
    let c = Value.compare t.last v in
    if c <= 0 then t.asc_pairs <- t.asc_pairs + 1;
    if c >= 0 then begin
      t.desc_pairs <- t.desc_pairs + 1;
      t.strict_asc <- false
    end
  end;
  t.seen <- t.seen + 1;
  t.last <- v

let count t = t.seen

let ascending_fraction t =
  let pairs = t.seen - 1 in
  if pairs <= 0 then 1.0 else float_of_int t.asc_pairs /. float_of_int pairs

(* The in-order fraction below which a stream is [Unsorted]. *)
let threshold = 0.95

let verdict t =
  let pairs = t.seen - 1 in
  if pairs <= 0 then Ascending
  else begin
    let asc = float_of_int t.asc_pairs /. float_of_int pairs in
    let desc = float_of_int t.desc_pairs /. float_of_int pairs in
    if asc >= threshold && asc >= desc then Ascending
    else if desc >= threshold then Descending
    else Unsorted
  end

let strictly_ascending t = t.strict_asc

let perfectly_sorted t =
  let pairs = t.seen - 1 in
  pairs <= 0 || t.asc_pairs = pairs || t.desc_pairs = pairs
