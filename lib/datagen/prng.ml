(* The 64-bit state lives in a byte buffer rather than a mutable [int64]
   field: reading and writing it through [Bytes.get_int64_le]/[set_int64_le]
   keeps the arithmetic unboxed, so a draw allocates nothing beyond its
   boxed float result. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] next_u64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let child = Bytes.create 8 in
  Bytes.set_int64_le child 0 (next_u64 t);
  child

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  (* Keep the value within OCaml's 63-bit native int range (non-negative). *)
  let v = Int64.to_int (Int64.shift_right_logical (next_u64 t) 2) in
  v mod bound

let range t lo hi =
  if hi < lo then invalid_arg "Prng.range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_u64 t) 1L = 1L

let exponential t ~mean =
  let u = float t in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choice: empty";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
