type t = {
  schema : Schema.t;
  mutable data : Tuple.t array;
  mutable len : int;
}

let create schema = { schema; data = [||]; len = 0 }

let schema t = t.schema
let cardinality t = t.len

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = max 16 (max n (2 * Array.length t.data)) in
    let data = Array.make cap [||] in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let append t tuple =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- tuple;
  t.len <- t.len + 1

let of_list schema tuples =
  let t = create schema in
  List.iter (append t) tuples;
  t

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Relation.get: out of bounds";
  t.data.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun tup -> acc := f !acc tup) t;
  !acc

let to_list t = List.rev (fold (fun acc tup -> tup :: acc) [] t)
let to_seq t = Seq.init t.len (fun i -> t.data.(i))

let sort_by t cols =
  let idxs = Array.of_list (List.map (Schema.index t.schema) cols) in
  let arr = Array.sub t.data 0 t.len in
  let cmp a b = Tuple.compare_key (Tuple.key a idxs) (Tuple.key b idxs) in
  Array.stable_sort cmp arr;
  { schema = t.schema; data = arr; len = t.len }

let order_by t specs =
  let resolved =
    List.map (fun (col, dir) -> Schema.index t.schema col, dir) specs
  in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (i, dir) :: rest ->
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then (match dir with `Asc -> c | `Desc -> -c)
        else go rest
    in
    go resolved
  in
  let arr = Array.sub t.data 0 t.len in
  Array.stable_sort cmp arr;
  { schema = t.schema; data = arr; len = t.len }

let equal_bag a b =
  cardinality a = cardinality b
  &&
  let sa = Array.sub a.data 0 a.len and sb = Array.sub b.data 0 b.len in
  Array.sort Tuple.compare sa;
  Array.sort Tuple.compare sb;
  let rec go i = i >= a.len || (Tuple.equal sa.(i) sb.(i) && go (i + 1)) in
  go 0

let pp ?(limit = 20) fmt t =
  Format.fprintf fmt "%a (%d rows)@." Schema.pp t.schema t.len;
  let n = min limit t.len in
  for i = 0 to n - 1 do
    Format.fprintf fmt "  %a@." Tuple.pp t.data.(i)
  done;
  if t.len > n then Format.fprintf fmt "  ... (%d more)@." (t.len - n)
