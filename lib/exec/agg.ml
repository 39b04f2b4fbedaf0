open Adp_relation

type input = Raw | Partial

module Ktbl = Tuple.Ktbl

(* Group-key indices and aggregates compiled against one input layout. *)
type view = { group_idx : int array; comp : Aggregate.compiled }

type t = {
  ctx : Ctx.t;
  view_of : Schema.t -> view;
  base : view;  (* for the schema given to [create] *)
  out_schema : Schema.t;
  table : Value.t array Ktbl.t;
  mutable order : Value.t array list;  (* first-seen order, newest first *)
  mutable consumed : int;
}

let create ctx ~group_cols ~aggs ~input schema =
  let view_of schema =
    { group_idx = Array.of_list (List.map (Schema.index schema) group_cols);
      comp =
        (match input with
         | Raw -> Aggregate.compile aggs schema
         | Partial -> Aggregate.compile_partial aggs schema) }
  in
  let out_names =
    List.map (fun c -> (Schema.columns schema).(Schema.index schema c)) group_cols
    @ List.map (fun (a : Aggregate.spec) -> a.name) aggs
  in
  { ctx; view_of; base = view_of schema; out_schema = Schema.make out_names;
    table = Ktbl.create 256; order = []; consumed = 0 }

let view t schema = t.view_of schema

let absorb t v tuple =
  t.consumed <- t.consumed + 1;
  let k = Tuple.key tuple v.group_idx in
  match Ktbl.find_opt t.table k with
  | Some acc -> Aggregate.update v.comp acc tuple
  | None ->
    let acc = Aggregate.init v.comp in
    Aggregate.update v.comp acc tuple;
    Ktbl.replace t.table k acc;
    t.order <- k :: t.order

let charge_updates t n =
  for _ = 1 to n do Ctx.charge t.ctx t.ctx.Ctx.costs.agg_update done

let add_view t v tuple =
  Ctx.charge t.ctx t.ctx.Ctx.costs.agg_update;
  absorb t v tuple

let add t tuple = add_view t t.base tuple
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
      Relation.append rel
        (Array.append k (Aggregate.finalize t.base.comp acc)))
    (List.rev t.order);
  rel
