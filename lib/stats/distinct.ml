open Adp_relation

module Vset = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* The sketch keeps its count of clear bits as it goes, so [estimate] does
   not scan the bitmap. *)
type mode =
  | Exact of unit Vset.t
  | Sketch of { bm : Bytes.t; mutable zeros : int }

(* Exact up to 4,096 distinct values, then a 2^16-bit linear counter. *)
let exact_budget = 4096
let mask = (1 lsl 16) - 1

type t = {
  mutable seen : int;
  mutable last : Value.t;  (* the previous value added, once [seen > 0] *)
  mutable mode : mode;
}

let create () = { seen = 0; last = Value.Null; mode = Exact (Vset.create 256) }

(* Sets bit [i]; true when it was clear. *)
let bitmap_set bm i =
  let byte = i lsr 3 and bit = 1 lsl (i land 7) in
  let c = Char.code (Bytes.get bm byte) in
  Bytes.set bm byte (Char.chr (c lor bit));
  c land bit = 0

let to_sketch t set =
  let bm = Bytes.make ((mask + 1) lsr 3) '\000' in
  let zeros = ref (mask + 1) in
  Vset.iter
    (fun v () -> if bitmap_set bm (Value.hash v land mask) then decr zeros)
    set;
  t.mode <- Sketch { bm; zeros = !zeros }

(* Interchangeable values: same constructor and payload, so equal to the
   same values and hashed alike.  [Value.equal] is weaker (it is not
   transitive across [Int]/[Float]), so it cannot stand in here. *)
let same a b =
  match a, b with
  | Value.Null, Value.Null -> true
  | Int x, Int y | Date x, Date y -> x = y
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Str x, Str y -> String.equal x y
  | (Null | Int _ | Float _ | Str _ | Date _), _ -> false

let add t v =
  (* A repeat of the previous value is already in the set or bitmap. *)
  let repeat = t.seen > 0 && same t.last v in
  t.seen <- t.seen + 1;
  t.last <- v;
  if not repeat then
    match t.mode with
    | Exact set ->
      if not (Vset.mem set v) then begin
        Vset.replace set v ();
        if Vset.length set > exact_budget then to_sketch t set
      end
    | Sketch s ->
      if bitmap_set s.bm (Value.hash v land mask) then s.zeros <- s.zeros - 1

let estimate t =
  match t.mode with
  | Exact set -> float_of_int (Vset.length set)
  | Sketch s ->
    let m = float_of_int (mask + 1) in
    let z = float_of_int s.zeros in
    if z <= 0.0 then m *. log m (* saturated: crude upper bound *)
    else -.m *. log (z /. m)

let is_exact t = match t.mode with Exact _ -> true | Sketch _ -> false
