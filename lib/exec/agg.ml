open Adp_relation

type input = Raw | Partial

module Ktbl = Tuple.Ktbl

type t = {
  ctx : Ctx.t;
  group_idx : int array;
  comp : Aggregate.compiled;
  out_schema : Schema.t;
  table : Value.t array Ktbl.t;
  mutable order : Value.t array list;  (* first-seen order, newest first *)
  mutable consumed : int;
}

let create ctx ~group_cols ~aggs ~input schema =
  let group_idx =
    Array.of_list (List.map (Schema.index schema) group_cols)
  in
  let comp =
    match input with
    | Raw -> Aggregate.compile aggs schema
    | Partial -> Aggregate.compile_partial aggs schema
  in
  let out_names =
    List.map (fun c -> (Schema.columns schema).(Schema.index schema c)) group_cols
    @ List.map (fun (a : Aggregate.spec) -> a.name) aggs
  in
  { ctx; group_idx; comp; out_schema = Schema.make out_names;
    table = Ktbl.create 256; order = []; consumed = 0 }

let add t tuple =
  Ctx.charge t.ctx t.ctx.Ctx.costs.agg_update;
  t.consumed <- t.consumed + 1;
  let k = Tuple.key tuple t.group_idx in
  match Ktbl.find_opt t.table k with
  | Some acc -> Aggregate.update t.comp acc tuple
  | None ->
    let acc = Aggregate.init t.comp in
    Aggregate.update t.comp acc tuple;
    Ktbl.replace t.table k acc;
    t.order <- k :: t.order

let add_all t tuples = List.iter (add t) tuples

let consumed t = t.consumed
let groups t = Ktbl.length t.table
let out_schema t = t.out_schema

let result t =
  let rel = Relation.create t.out_schema in
  List.iter
    (fun k ->
      let acc = Ktbl.find t.table k in
      Ctx.charge t.ctx t.ctx.Ctx.costs.output;
      Relation.append rel (Array.append k (Aggregate.finalize t.comp acc)))
    (List.rev t.order);
  rel
