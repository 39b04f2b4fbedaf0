(* Answer oracle for the benchmark: each query evaluated by a plain
   in-memory hash join over its filtered sources, joined in a greedy
   connected order, then grouped.  It shares no join, scan or sink code
   with the engine's push pipeline, and it is computed after the timed
   passes, so its cost shows in neither [setup_s] nor [wall_s].  The test
   next to this file confirms it against [Strategy.reference], the
   engine's independent nested-loop evaluator. *)

open Adp_relation
open Adp_exec
open Adp_optimizer

let drain src filter =
  let rel = Relation.create (Source.schema src) in
  let rec go () =
    match Source.next src with
    | None -> ()
    | Some (tuple, _) ->
      if filter tuple then Relation.append rel tuple;
      go ()
  in
  go ();
  rel

let filtered srcs (s : Logical.source) =
  let src = List.find (fun src -> Source.name src = s.Logical.name) srcs in
  drain src (Predicate.compile s.Logical.filter (Source.schema src))

(* [acc ⋈ r] on every join predicate with one column on each side.  Keys
   holding a NULL never match, as under [Value.eq_sql]. *)
let hash_join acc r (q : Logical.query) =
  let sa = Relation.schema acc and sr = Relation.schema r in
  let pairs =
    List.filter_map
      (fun (a, b) ->
        if Schema.mem sa a && Schema.mem sr b then Some (a, b)
        else if Schema.mem sa b && Schema.mem sr a then Some (b, a)
        else None)
      q.Logical.join_preds
  in
  let ia = Array.of_list (List.map (fun (a, _) -> Schema.index sa a) pairs)
  and ir = Array.of_list (List.map (fun (_, b) -> Schema.index sr b) pairs) in
  let out = Relation.create (Schema.concat sa sr) in
  let tbl = Hashtbl.create (max 16 (Relation.cardinality r)) in
  Relation.iter
    (fun t ->
      let k = Tuple.key t ir in
      if not (Array.exists Value.is_null k) then
        Hashtbl.add tbl (Tuple.hash_key k) (k, t))
    r;
  Relation.iter
    (fun t ->
      let k = Tuple.key t ia in
      List.iter
        (fun (k', t') ->
          if Array.for_all2 Value.eq_sql k k' then
            Relation.append out (Tuple.concat t t'))
        (Hashtbl.find_all tbl (Tuple.hash_key k)))
    acc;
  out

let touches (q : Logical.query) joined name =
  List.exists
    (fun (a, b) ->
      (Logical.relation_of_column a = name && List.mem (Logical.relation_of_column b) joined)
      || (Logical.relation_of_column b = name
          && List.mem (Logical.relation_of_column a) joined))
    q.Logical.join_preds

(* The join result before grouping.  The next relation joined is always
   one connected to those already joined, so no cross product forms. *)
let joined (q : Logical.query) ~sources =
  let srcs = sources () in
  let rel = filtered srcs in
  match q.Logical.sources with
  | [] -> invalid_arg "Oracle.joined: no sources"
  | first :: rest ->
    let rec go acc names = function
      | [] -> acc
      | pending ->
        let next =
          match List.find_opt (fun s -> touches q names s.Logical.name) pending with
          | Some s -> s
          | None -> List.hd pending
        in
        go
          (hash_join acc (rel next) q)
          (next.Logical.name :: names)
          (List.filter (fun s -> s != next) pending)
    in
    go (rel first) [ first.Logical.name ] rest

let answer_of (q : Logical.query) joined =
  if q.Logical.aggs = [] && q.Logical.group_cols = [] then
    match q.Logical.projection with
    | [] -> joined
    | cols ->
      let schema = Relation.schema joined in
      let idx = Array.of_list (List.map (Schema.index schema) cols) in
      Relation.of_list (Schema.project schema cols)
        (List.map (fun t -> Tuple.project t idx) (Relation.to_list joined))
  else begin
    let agg =
      Agg.create (Ctx.create ()) ~group_cols:q.Logical.group_cols
        ~aggs:q.Logical.aggs ~input:Agg.Raw (Relation.schema joined)
    in
    Relation.iter (Agg.add agg) joined;
    Agg.result agg
  end

let answer q ~sources = answer_of q (joined q ~sources)

(* Bag equality.  Float sums compare with a 1e-9 relative tolerance:
   phase switches and resumes reorder the summation. *)
let value_approx a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
    Float.abs (x -. y) /. scale < 1e-9
  | _ -> Value.equal a b

let same_bag a b =
  let sort r = List.sort Tuple.compare (Relation.to_list r) in
  let la = sort a and lb = sort b in
  List.length la = List.length lb
  && List.for_all2
       (fun ta tb ->
         Array.length ta = Array.length tb && Array.for_all2 value_approx ta tb)
       la lb
