open Adp_relation

type t = {
  query : Logical.query;
  catalog : Catalog.t;
  sels : Adp_stats.Selectivity.t;
  memo : (string, float) Hashtbl.t;
}

let create query catalog sels = { query; catalog; sels; memo = Hashtbl.create 64 }

let refresh t = Hashtbl.reset t.memo

let rec filter_selectivity = function
  | Predicate.True -> 1.0
  | Predicate.Cmp (op, _, _) | Predicate.Col_cmp (op, _, _) ->
    (match op with
     | Predicate.Eq -> 0.1
     | Predicate.Ne -> 0.9
     | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge -> 1.0 /. 3.0)
  | Predicate.Between _ -> 0.25
  | Predicate.In (_, vs) -> min 1.0 (0.1 *. float_of_int (List.length vs))
  | Predicate.Not p -> 1.0 -. filter_selectivity p
  | Predicate.And (a, b) -> filter_selectivity a *. filter_selectivity b
  | Predicate.Or (a, b) -> min 1.0 (filter_selectivity a +. filter_selectivity b)

(* Exact cardinality once the source is exhausted; otherwise the catalog
   value, floored by what has already been read (a sound lower bound). *)
let raw_cardinality t name =
  match Adp_stats.Selectivity.final_cardinality t.sels name with
  | Some total -> float_of_int (max 1 total)
  | None ->
    let seen =
      Option.value ~default:0 (Adp_stats.Selectivity.cardinality t.sels name)
    in
    max (Catalog.cardinality t.catalog name) (float_of_int seen)

let leaf_cardinality t name =
  let sg = Logical.signature_of_set t.query [ name ] in
  match Adp_stats.Selectivity.lookup t.sels sg with
  | Some sel -> max 1.0 (sel *. raw_cardinality t name)
  | None ->
    let src = List.find (fun s -> s.Logical.name = name) t.query.sources in
    max 1.0 (filter_selectivity src.Logical.filter *. raw_cardinality t name)

(* Default selectivity of one equi-join predicate: 1/card(key side) when a
   declared key participates (key–FK), else 1/max. *)
let pred_selectivity t (a, b) =
  let ra = Logical.relation_of_column a
  and rb = Logical.relation_of_column b in
  let ca = raw_cardinality t ra and cb = raw_cardinality t rb in
  match
    Adp_stats.Selectivity.multiplicative_factor t.sels
      (Adp_exec.Plan.canon_pred a b)
  with
  | Some f -> f /. max 1.0 (min ca cb)
  | None ->
    let key_a = Catalog.is_key t.catalog ~relation:ra ~column:a in
    let key_b = Catalog.is_key t.catalog ~relation:rb ~column:b in
    if key_a && key_b then 1.0 /. max 1.0 (max ca cb)
    else if key_a then 1.0 /. max 1.0 ca
    else if key_b then 1.0 /. max 1.0 cb
    else 1.0 /. max 1.0 (max ca cb)

let rec set_cardinality t rels =
  let rels = List.sort String.compare rels in
  match rels with
  | [] -> 0.0
  | [ r ] -> leaf_cardinality t r
  | _ ->
    let memo_key = String.concat ";" rels in
    (match Hashtbl.find_opt t.memo memo_key with
     | Some v -> v
     | None ->
       let v = estimate_set t rels in
       Hashtbl.replace t.memo memo_key v;
       v)

and estimate_set t rels =
  let sg = Logical.signature_of_set t.query rels in
  (* A direct output prediction (linear extrapolation by the monitor)
     beats everything; observed selectivity applied to raw cardinalities
     is the fallback. *)
  match Adp_stats.Selectivity.lookup_output t.sels sg with
  | Some card -> max 1.0 card
  | None ->
  match Adp_stats.Selectivity.lookup t.sels sg with
  | Some sel ->
    let prod =
      List.fold_left (fun acc r -> acc *. raw_cardinality t r) 1.0 rels
    in
    max 0.0 (sel *. prod)
  | None ->
    (* System-R candidate: product of filtered leaves times predicate
       selectivities, each predicate corrected from filtered to raw basis
       by construction of [pred_selectivity] (which uses raw cards). *)
    let sys_r =
      let leaves =
        List.fold_left (fun acc r -> acc *. leaf_cardinality t r) 1.0 rels
      in
      let preds =
        List.filter
          (fun (a, b) ->
            List.mem (Logical.relation_of_column a) rels
            && List.mem (Logical.relation_of_column b) rels)
          t.query.Logical.join_preds
      in
      List.fold_left (fun acc p -> acc *. pred_selectivity t p) leaves preds
    in
    (* Key–FK speculation: for each relation attached to the rest through
       its own key, the join should preserve the rest's cardinality.  Only
       sound when the rest stays connected — a disconnected rest contains
       a cross product and its estimate would poison the average. *)
    let speculations =
      List.filter_map
        (fun r ->
          let rest = List.filter (( <> ) r) rels in
          let connecting =
            Logical.preds_between t.query ~inside:[ r ] ~outside:rest
          in
          let keyed =
            List.exists
              (fun (inside_col, _) ->
                Catalog.is_key t.catalog ~relation:r ~column:inside_col)
              connecting
          in
          if keyed && connecting <> [] && Logical.connected t.query rest then
            Some (set_cardinality t rest)
          else None)
        rels
    in
    let candidates = sys_r :: speculations in
    let sum = List.fold_left ( +. ) 0.0 candidates in
    max 1.0 (sum /. float_of_int (List.length candidates))
