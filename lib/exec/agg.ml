open Adp_relation
open Adp_storage

type input = Raw | Partial

type view = Aggregate.compiled

type t = {
  ctx : Ctx.t;
  view_of : Schema.t -> view;
  base : view;  (* for the schema given to [create] *)
  out_schema : Schema.t;
  groups : Hash_table.t;  (* one group row per group, first-seen *)
  empty : Tuple.t option;  (* a global aggregate's row over no input *)
}

let create ctx ~group_cols ~aggs ~input schema =
  let view_of schema =
    match input with
    | Raw -> Aggregate.compile ~group_cols aggs schema
    | Partial -> Aggregate.compile_partial ~group_cols aggs schema
  in
  let group_names =
    List.map (fun c -> (Schema.columns schema).(Schema.index schema c)) group_cols
  in
  { ctx; view_of; base = view_of schema;
    out_schema =
      Schema.make
        (group_names @ List.map (fun (a : Aggregate.spec) -> a.name) aggs);
    groups =
      Hash_table.create
        (Aggregate.partial_schema ~group_cols:group_names aggs)
        ~key_cols:group_names;
    empty =
      (if group_cols <> [] then None
       else
         let value (a : Aggregate.spec) =
           if a.fn = Aggregate.Count then Value.Int 0 else Value.Null
         in
         Some (Array.of_list (List.map value aggs))) }

let view t schema = t.view_of schema

let absorb t v tuple = Aggregate.absorb v t.groups tuple

let charge_updates t n =
  for _ = 1 to n do Ctx.charge t.ctx t.ctx.Ctx.costs.agg_update done

let add_view t v tuple =
  Ctx.charge t.ctx t.ctx.Ctx.costs.agg_update;
  absorb t v tuple

let add t tuple = add_view t t.base tuple

let result t =
  let rel = Relation.create t.out_schema in
  let emit row =
    Ctx.charge t.ctx t.ctx.Ctx.costs.output;
    Relation.append rel row
  in
  let groups = Hash_table.view t.groups in
  Row_log.view_iter (fun row -> emit (Aggregate.finalize t.base row)) groups;
  (match t.empty with
   | Some row when Row_log.view_length groups = 0 -> emit (Array.copy row)
   | Some _ | None -> ());
  rel
