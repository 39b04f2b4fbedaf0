open Adp_relation
open Adp_storage

type fn = Count | Sum | Min | Max | Avg

type spec = { fn : fn; expr : Expr.t; name : string }

let count_all ~name = { fn = Count; expr = Expr.int 1; name }
let sum ~name expr = { fn = Sum; expr; name }
let min_of ~name expr = { fn = Min; expr; name }
let max_of ~name expr = { fn = Max; expr; name }
let avg ~name expr = { fn = Avg; expr; name }

type slot = Acc_sum | Acc_cnt | Acc_min | Acc_max

let slots_of = function
  | Count -> [ Acc_cnt ]
  | Sum -> [ Acc_sum ]
  | Min -> [ Acc_min ]
  | Max -> [ Acc_max ]
  | Avg -> [ Acc_sum; Acc_cnt ]

let slot_suffix = function
  | Acc_sum -> "_sum"
  | Acc_cnt -> "_cnt"
  | Acc_min -> "_min"
  | Acc_max -> "_max"

let partial_names specs =
  List.concat_map
    (fun s ->
      List.map (fun sl -> "pa." ^ s.name ^ slot_suffix sl) (slots_of s.fn))
    specs

let partial_schema ~group_cols specs =
  Schema.make (group_cols @ partial_names specs)

type input_kind =
  | Raw of (Tuple.t -> Value.t) array  (* one eval per slot's spec *)
  | Partial of int array  (* source column index per slot *)

(* A spec's slots are adjacent, in [slots_of] order. *)
type compiled = {
  specs : spec list;
  group_idx : int array;  (* the group columns in the input *)
  slots : slot array;
  input : input_kind;
}

let compiled specs schema group_cols input =
  { specs; input;
    group_idx = Array.of_list (List.map (Schema.index schema) group_cols);
    slots = Array.of_list (List.concat_map (fun s -> slots_of s.fn) specs) }

let compile ~group_cols specs schema =
  compiled specs schema group_cols
    (Raw
       (Array.of_list
          (List.concat_map
             (fun s ->
               List.map (fun _ -> Expr.compile s.expr schema) (slots_of s.fn))
             specs)))

let compile_partial ~group_cols specs schema =
  compiled specs schema group_cols
    (Partial
       (Array.of_list (List.map (Schema.index schema) (partial_names specs))))

let neutral = function
  | Acc_sum -> Value.Int 0
  | Acc_cnt -> Value.Int 0
  | Acc_min | Acc_max -> Value.Null

let init c tuple =
  let g = Array.length c.group_idx in
  Array.init
    (g + Array.length c.slots)
    (fun i ->
      if i < g then tuple.(c.group_idx.(i)) else neutral c.slots.(i - g))

let combine slot acc v =
  match slot with
  | Acc_sum -> Value.add acc v
  | Acc_cnt -> Value.add acc v
  | Acc_min -> Value.min_v acc v
  | Acc_max -> Value.max_v acc v

let update c row tuple =
  let g = Array.length c.group_idx in
  match c.input with
  | Raw evals ->
    Array.iteri
      (fun i slot ->
        let v =
          match slot with Acc_cnt -> Value.Int 1 | _ -> evals.(i) tuple
        in
        row.(g + i) <- combine slot row.(g + i) v)
      c.slots
  | Partial idx ->
    Array.iteri
      (fun i slot -> row.(g + i) <- combine slot row.(g + i) tuple.(idx.(i)))
      c.slots

let find c groups tuple = Hash_table.group groups tuple c.group_idx

let absorb c groups tuple =
  let cur = find c groups tuple in
  if cur >= 0 then update c (Hash_table.row groups cur) tuple
  else begin
    let row = init c tuple in
    update c row tuple;
    Hash_table.insert groups row
  end

let mean sum cnt =
  if Value.is_null sum || Value.is_null cnt then Value.Null
  else
    let n = Value.to_float cnt in
    if n = 0.0 then Value.Null else Value.Float (Value.to_float sum /. n)

let finalize c row =
  let rec finals p = function
    | [] -> []
    | { fn = Avg; _ } :: rest -> mean row.(p) row.(p + 1) :: finals (p + 2) rest
    | { fn = Count | Sum | Min | Max; _ } :: rest ->
      row.(p) :: finals (p + 1) rest
  in
  let g = Array.length c.group_idx in
  Array.append (Array.sub row 0 g) (Array.of_list (finals g c.specs))
