open Adp_relation
open Adp_storage

type side = L | R

type t = {
  ctx : Ctx.t;
  mode : [ `Hash | `Merge ];
  ltbl : Hash_table.t;
  rtbl : Hash_table.t;
  mutable last_l : Value.t array option;
  mutable last_r : Value.t array option;
  mutable out : int;
}

let create ctx ~mode ~left_schema ~right_schema ~left_key ~right_key =
  { ctx; mode;
    ltbl = Hash_table.create left_schema ~key_cols:left_key;
    rtbl = Hash_table.create right_schema ~key_cols:right_key;
    last_l = None; last_r = None; out = 0 }

let accepts t side tuple =
  match t.mode with
  | `Hash -> true
  | `Merge ->
    let tbl, last = match side with L -> t.ltbl, t.last_l | R -> t.rtbl, t.last_r in
    (match last with
     | None -> true
     | Some k -> Tuple.compare_key k (Hash_table.key_of tbl tuple) <= 0)

(* The matches at [cur] joined with [tuple]: the cursor visits them
   newest first, so the list comes out oldest first. *)
let rec joined tbl ~left tuple acc cur =
  if cur < 0 then acc
  else
    let m = Hash_table.row tbl cur in
    let out = if left then Tuple.concat tuple m else Tuple.concat m tuple in
    joined tbl ~left tuple (out :: acc) (Hash_table.next tbl cur)

let insert t side tuple =
  if not (accepts t side tuple) then
    invalid_arg "Sym_join.insert: out-of-order merge insertion";
  let c = t.ctx.Ctx.costs in
  let build, probe =
    match t.mode with
    | `Hash -> c.hash_build, c.hash_probe
    | `Merge -> c.merge_append, c.merge_probe
  in
  Ctx.charge t.ctx build;
  let outs =
    match side with
    | L ->
      if t.mode = `Merge then t.last_l <- Some (Hash_table.key_of t.ltbl tuple);
      joined t.rtbl ~left:true tuple []
        (Hash_table.insert_probe t.ltbl tuple ~probe:t.rtbl)
    | R ->
      if t.mode = `Merge then t.last_r <- Some (Hash_table.key_of t.rtbl tuple);
      joined t.ltbl ~left:false tuple []
        (Hash_table.insert_probe t.rtbl tuple ~probe:t.ltbl)
  in
  let n = List.length outs in
  Ctx.charge t.ctx (probe +. (c.per_match *. float_of_int n));
  t.out <- t.out + n;
  outs

let left_table t = t.ltbl
let right_table t = t.rtbl
let out_count t = t.out
