open Adp_relation
open Adp_exec
open Adp_optimizer

(* Where tuples fed under one schema go, with no intermediate copy: into
   the aggregate compiled against that schema, or into the collected
   relation through the given columns ([None]: kept as they are). *)
type view =
  | Into_agg of Agg.t * Agg.view
  | Into_relation of Relation.t * int array option

type t = {
  canonical : Schema.t;
  base : view;  (* for the canonical schema *)
  mutable cached : Schema.t * view;
      (* feeds arrive in long runs from one plan; cache its view *)
}

let create ctx (q : Logical.query) ~canonical =
  let base =
    if q.aggs = [] && q.group_cols = [] then begin
      let project =
        match q.projection with
        | [] -> None
        | cols ->
          Some (Array.of_list (List.map (Schema.index canonical) cols))
      in
      let out_schema =
        match q.projection with
        | [] -> canonical
        | cols -> Schema.project canonical cols
      in
      Into_relation (Relation.create out_schema, project)
    end
    else begin
      (* Partial inputs are detected by the presence of the partial
         accumulator columns in the canonical schema. *)
      let input =
        match Aggregate.partial_names q.aggs with
        | first :: _ when Schema.mem canonical first -> Agg.Partial
        | _ :: _ | [] -> Agg.Raw
      in
      let agg =
        Agg.create ctx ~group_cols:q.group_cols ~aggs:q.aggs ~input canonical
      in
      Into_agg (agg, Agg.view agg canonical)
    end
  in
  { canonical; base; cached = (canonical, base) }

let make_view t from =
  if not (Schema.same_columns from t.canonical) then
    invalid_arg
      (Format.asprintf "Sink.feed: %a vs %a" Schema.pp from Schema.pp
         t.canonical);
  match t.base with
  | Into_agg (agg, _) -> Into_agg (agg, Agg.view agg from)
  | Into_relation (out, project) ->
    (* The feed's permutation into the canonical layout, composed with
       the projection. *)
    let perm = Schema.permutation ~from ~into:t.canonical in
    (match project with
     | Some idx ->
       Into_relation (out, Some (Array.map (fun i -> perm.(i)) idx))
     | None when perm = Array.init (Array.length perm) Fun.id ->
       Into_relation (out, None)
     | None -> Into_relation (out, Some perm))

let view_for t from =
  match t.cached with
  | s, v when s == from -> v
  | _ ->
    let v = make_view t from in
    t.cached <- (from, v);
    v

(* What takes one tuple into [view]; an aggregate charges for it only
   when [charge]. *)
let add ~charge = function
  | Into_agg (agg, v) -> if charge then Agg.add_view agg v else Agg.absorb agg v
  | Into_relation (out, None) -> Relation.append out
  | Into_relation (out, Some cols) ->
    fun tuple -> Relation.append out (Tuple.project tuple cols)

let feed t ~from tuples =
  if tuples <> [] then List.iter (add ~charge:true (view_for t from)) tuples

let stream t ~from = add ~charge:false (view_for t from)

let settle t n =
  match t.base with
  | Into_agg (agg, _) -> Agg.charge_updates agg n
  | Into_relation _ -> ()

let result t =
  match t.base with
  | Into_agg (agg, _) -> Agg.result agg
  | Into_relation (out, _) -> out
