open Adp_relation
open Adp_exec

type source = { name : string; filter : Predicate.t }

type query = {
  sources : source list;
  join_preds : (string * string) list;
  group_cols : string list;
  aggs : Aggregate.spec list;
  projection : string list;
}

let relation_of_column col =
  match String.index_opt col '.' with
  | Some i -> String.sub col 0 i
  | None -> invalid_arg ("Logical.relation_of_column: unqualified " ^ col)

let source_names q = List.map (fun s -> s.name) q.sources

let preds_between q ~inside ~outside =
  List.filter_map
    (fun (a, b) ->
      let ra = relation_of_column a and rb = relation_of_column b in
      if List.mem ra inside && List.mem rb outside then Some (a, b)
      else if List.mem rb inside && List.mem ra outside then Some (b, a)
      else None)
    q.join_preds

let preds_within q rels =
  List.filter_map
    (fun (a, b) ->
      if List.mem (relation_of_column a) rels
         && List.mem (relation_of_column b) rels
      then Some (Plan.canon_pred a b)
      else None)
    q.join_preds
  |> List.sort String.compare

let relation_of_column_opt col =
  match String.index_opt col '.' with
  | Some i -> Some (String.sub col 0 i)
  | None -> None

(* The relations of [rels] reached from its first along the predicates
   between two of them, grown to the fixpoint.  A predicate on an
   unqualified column joins nothing. *)
let reached q rels =
  match rels with
  | [] -> []
  | first :: _ ->
    let edges =
      List.filter_map
        (fun (a, b) ->
          match relation_of_column_opt a, relation_of_column_opt b with
          | Some ra, Some rb when List.mem ra rels && List.mem rb rels ->
            Some (ra, rb)
          | (Some _ | None), (Some _ | None) -> None)
        q.join_preds
    in
    let reached = ref [ first ] and changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (ra, rb) ->
          let ha = List.mem ra !reached and hb = List.mem rb !reached in
          if ha <> hb then begin
            reached := (if ha then rb else ra) :: !reached;
            changed := true
          end)
        edges
    done;
    !reached

let connected q rels =
  let reached = reached q rels in
  List.for_all (fun r -> List.mem r reached) rels

let scan_token_of q name =
  match List.find_opt (fun s -> s.name = name) q.sources with
  | Some s -> Plan.scan_token ~source:s.name ~filter:s.filter
  | None -> invalid_arg ("Logical.scan_token_of: unknown source " ^ name)

let signature_of_set q rels =
  Plan.signature_of_parts
    ~relations:(List.map (scan_token_of q) rels)
    ~predicates:(preds_within q rels) ~preaggs:[]

let keep q =
  if q.group_cols = [] && q.aggs = [] && q.projection = [] then Plan.keep_all
  else begin
    let outputs =
      q.group_cols
      @ List.concat_map (fun (a : Aggregate.spec) -> Expr.columns a.expr) q.aggs
      @ q.projection
    in
    let names = source_names q in
    (* [col] pairs with a column whose relation lies outside the set. *)
    let leaves relations col =
      List.exists
        (fun (a, b) ->
          let out c =
            match relation_of_column_opt c with
            | Some r -> not (List.mem r relations)
            | None -> true
          in
          (String.equal a col && out b) || (String.equal b col && out a))
        q.join_preds
    in
    fun ~relations col ->
      match relation_of_column_opt col with
      | Some r when List.mem r names ->
        List.mem col outputs || leaves relations col
      | Some _ | None -> true
  end

let validate_list ~schema_of q =
  let errs = ref [] in
  let add code msg = errs := (code, msg) :: !errs in
  if q.sources = [] then add "no-sources" "query has no sources";
  let names = source_names q in
  let dup =
    List.filter (fun n -> List.length (List.filter (( = ) n) names) > 1) names
    |> List.sort_uniq String.compare
  in
  if dup <> [] then
    add "duplicate-source" ("duplicate sources " ^ String.concat "," dup);
  let check_col col =
    match relation_of_column_opt col with
    | None -> add "unqualified-column" ("column " ^ col ^ " is unqualified")
    | Some r ->
      if not (List.mem r names) then
        add "unknown-source-for-column"
          ("column " ^ col ^ " has no source in the query")
      else begin
        match schema_of r with
        | exception Not_found ->
          add "unknown-source" ("no schema known for source " ^ r)
        | schema ->
          if not (Schema.mem schema col) then
            add "unknown-column" ("column " ^ col ^ " not in " ^ r)
      end
  in
  List.iter
    (fun s -> List.iter check_col (Predicate.columns s.filter))
    q.sources;
  List.iter
    (fun (a, b) ->
      check_col a;
      check_col b)
    q.join_preds;
  List.iter check_col q.group_cols;
  List.iter
    (fun (a : Aggregate.spec) -> List.iter check_col (Expr.columns a.expr))
    q.aggs;
  List.iter check_col q.projection;
  (* Connectivity of the join graph (avoids accidental cross products),
     along predicates between the query's own relations.  Predicates with
     unqualified columns were already reported above and join nothing. *)
  if List.length names > 1 then begin
    let reached = reached q names in
    let unreached = List.filter (fun n -> not (List.mem n reached)) names in
    if unreached <> [] then
      add "disconnected-join-graph"
        ("join graph disconnected at " ^ String.concat "," unreached)
  end;
  List.rev !errs

let validate ~schema_of q =
  match validate_list ~schema_of q with
  | [] -> ()
  | errs ->
    invalid_arg
      ("Logical.validate: " ^ String.concat "; " (List.map snd errs))

let pp fmt q =
  Format.fprintf fmt "SELECT %s"
    (if q.group_cols = [] && q.aggs = [] then
       if q.projection = [] then "*" else String.concat ", " q.projection
     else
       String.concat ", "
         (q.group_cols
         @ List.map
             (fun (a : Aggregate.spec) ->
               Printf.sprintf "%s AS %s" (Expr.to_string a.expr) a.name)
             q.aggs));
  Format.fprintf fmt " FROM %s"
    (String.concat ", " (List.map (fun s -> s.name) q.sources));
  let filters =
    List.filter_map
      (fun s ->
        if s.filter = Predicate.tt then None
        else Some (Predicate.to_string s.filter))
      q.sources
  in
  let joins = List.map (fun (a, b) -> a ^ " = " ^ b) q.join_preds in
  (match filters @ joins with
   | [] -> ()
   | conds -> Format.fprintf fmt " WHERE %s" (String.concat " AND " conds));
  if q.group_cols <> [] then
    Format.fprintf fmt " GROUP BY %s" (String.concat ", " q.group_cols)
