type t = { n : int; z : float; cdf : float array }

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
  { n; z; cdf }

let n t = t.n
let z t = t.z

let sample t rng =
  let u = Prng.float rng in
  (* First index whose cdf >= u; a loop over locals allocates nothing. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo + 1

let prob t rank =
  if rank < 1 || rank > t.n then invalid_arg "Zipf.prob: rank out of range";
  if rank = 1 then t.cdf.(0) else t.cdf.(rank - 1) -. t.cdf.(rank - 2)
