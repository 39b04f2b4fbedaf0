(* [guide.(b)] is the first index whose cdf reaches [b / buckets], for
   [b] in [0 .. buckets]: a draw [u] in bucket [b] lands between
   [guide.(b)] and [guide.(b + 1)], usually on one of them. *)
type t = { n : int; z : float; cdf : float array; guide : int array }

let create ~n ~z =
  if n <= 0 then invalid_arg "Zipf.create: n <= 0";
  if z < 0.0 then invalid_arg "Zipf.create: z < 0";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for rank = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int rank) z);
    cdf.(rank - 1) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  let buckets = float_of_int n in
  let guide = Array.make (n + 1) (n - 1) in
  let i = ref 0 in
  for b = 0 to n do
    let threshold = float_of_int b /. buckets in
    while !i < n - 1 && cdf.(!i) < threshold do
      incr i
    done;
    guide.(b) <- !i
  done;
  { n; z; cdf; guide }

let n t = t.n
let z t = t.z

(* The first index whose cdf >= u, or the last index: a lower bound
   over [lo, hi] that holds it. *)
let rec lower_bound cdf u lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cdf.(mid) >= u then lower_bound cdf u lo mid
    else lower_bound cdf u (mid + 1) hi

let sample t rng =
  let u = Prng.float rng in
  let cdf = t.cdf and last = t.n - 1 in
  let b = min (truncate (u *. float_of_int t.n)) last in
  (* The guide brackets the answer; float rounding at a bucket edge can
     leave it a step outside, and then the whole range is searched. *)
  let lo = t.guide.(b) and hi = t.guide.(b + 1) in
  let lo = if lo > 0 && cdf.(lo - 1) >= u then 0 else lo in
  let hi = if cdf.(hi) < u then last else hi in
  lower_bound cdf u lo hi + 1

let prob t rank =
  if rank < 1 || rank > t.n then invalid_arg "Zipf.prob: rank out of range";
  if rank = 1 then t.cdf.(0) else t.cdf.(rank - 1) -. t.cdf.(rank - 2)
