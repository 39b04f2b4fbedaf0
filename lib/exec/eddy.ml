open Adp_relation
open Adp_storage

type stem = {
  s_name : string;
  s_schema : Schema.t;
  s_tables : (string * Hash_table.t) list;  (* join column -> hash index *)
  mutable s_probes : int;
  mutable s_matches : int;
}

type t = {
  ctx : Ctx.t;
  stems : stem array;
  filters : (Tuple.t -> bool) array;
  filter_atoms : int array;
  (* (left rel index, left col index, right rel index, right col index,
     right col name) per join predicate *)
  preds : (int * int * int * int * string) list;
  out_schema : Schema.t;
  mutable decisions : int;
}

let rel_of_col col =
  match String.index_opt col '.' with
  | Some i -> String.sub col 0 i
  | None -> invalid_arg ("Eddy: unqualified column " ^ col)

let create ctx ~sources ~filters ~preds =
  let names = Array.of_list (List.map fst sources) in
  let index_of name =
    let found = ref (-1) in
    Array.iteri (fun i n -> if n = name then found := i) names;
    if !found < 0 then invalid_arg ("Eddy: unknown relation " ^ name);
    !found
  in
  let join_cols_of name =
    List.concat_map
      (fun (a, b) ->
        List.filter (fun c -> rel_of_col c = name) [ a; b ])
      preds
    |> List.sort_uniq String.compare
  in
  let stems =
    Array.of_list
      (List.map
         (fun (name, schema) ->
           { s_name = name; s_schema = schema;
             s_tables =
               List.map
                 (fun col -> col, Hash_table.create schema ~key_cols:[ col ])
                 (join_cols_of name);
             s_probes = 0; s_matches = 0 })
         sources)
  in
  let filter_of name =
    match List.assoc_opt name filters with
    | Some p -> p
    | None -> Predicate.tt
  in
  let filters_arr =
    Array.map
      (fun stem -> Predicate.compile (filter_of stem.s_name) stem.s_schema)
      stems
  in
  let filter_atoms =
    Array.map
      (fun stem -> max 1 (Predicate.size (filter_of stem.s_name)))
      stems
  in
  let resolved_preds =
    List.map
      (fun (a, b) ->
        let ra = index_of (rel_of_col a) and rb = index_of (rel_of_col b) in
        ( ra, Schema.index stems.(ra).s_schema a,
          rb, Schema.index stems.(rb).s_schema b, b ))
      preds
  in
  let out_schema =
    List.fold_left
      (fun acc (_, schema) -> Schema.concat acc schema)
      (Schema.make [])
      sources
  in
  { ctx; stems; filters = filters_arr; filter_atoms; preds = resolved_preds;
    out_schema; decisions = 0 }

let schema t = t.out_schema

(* Predicates linking relation [j] to the covered set, as
   (covered rel, covered col idx, j's col idx, j's col name). *)
let links t covered j =
  List.filter_map
    (fun (ra, ca, rb, cb, col_b) ->
      if ra = j && covered.(rb) then
        (* Orient so the covered side comes first; probing key is j's
           column, which for this orientation is column ca of relation
           ra = j.  Find ra's column name from its schema. *)
        Some (rb, cb, ca, (Schema.columns t.stems.(j).s_schema).(ca))
      else if rb = j && covered.(ra) then Some (ra, ca, cb, col_b)
      else None)
    t.preds

let emit _t parts =
  let pieces =
    Array.to_list
      (Array.map
         (function Some tup -> tup | None -> invalid_arg "Eddy: hole")
         parts)
  in
  Array.concat pieces

(* Residual predicates between a match [m] and the covered set. *)
let rec survives parts m = function
  | [] -> true
  | (r, c, jc, _) :: rest ->
    (match parts.(r) with
     | Some tup -> Value.eq_sql tup.(c) m.(jc)
     | None -> false)
    && survives parts m rest

(* Route a partial combination to completion, depth-first. *)
let rec route t parts covered acc =
  let n = Array.length t.stems in
  let all = Array.for_all Fun.id covered in
  if all then emit t parts :: acc
  else begin
    (* Candidate relations connected to the covered set. *)
    let candidates = ref [] in
    for j = n - 1 downto 0 do
      if (not covered.(j)) && links t covered j <> [] then
        candidates := j :: !candidates
    done;
    match !candidates with
    | [] -> acc (* disconnected query fragment: nothing to produce *)
    | cands ->
      (* Local greedy policy: lowest observed expansion ratio first. *)
      t.decisions <- t.decisions + 1;
      Ctx.charge t.ctx t.ctx.Ctx.costs.route;
      let ratio j =
        let stem = t.stems.(j) in
        float_of_int (stem.s_matches + 1) /. float_of_int (stem.s_probes + 1)
      in
      let j =
        List.fold_left
          (fun best cand -> if ratio cand < ratio best then cand else best)
          (List.hd cands) cands
      in
      let stem = t.stems.(j) in
      let conns = links t covered j in
      (match conns with
       | [] -> acc
       | (src_rel, src_col, _, probe_col) :: rest ->
         let key =
           match parts.(src_rel) with
           | Some tup -> tup.(src_col)
           | None -> invalid_arg "Eddy: missing part"
         in
         let table = List.assoc probe_col stem.s_tables in
         let first = Hash_table.probe_value table key in
         stem.s_probes <- stem.s_probes + 1;
         let c = t.ctx.Ctx.costs in
         Ctx.charge t.ctx
           (c.hash_probe
           +. (c.per_match *. float_of_int (Hash_table.count table first)));
         walk t parts covered j rest table acc first)
  end

(* The matches from cursor [cur] on, newest first, each one that passes
   the residual predicates [rest] routed on with relation [j] covered. *)
and walk t parts covered j rest table acc cur =
  if cur < 0 then acc
  else
    let m = Hash_table.row table cur in
    let acc =
      if survives parts m rest then begin
        let stem = t.stems.(j) in
        stem.s_matches <- stem.s_matches + 1;
        parts.(j) <- Some m;
        covered.(j) <- true;
        let acc = route t parts covered acc in
        parts.(j) <- None;
        covered.(j) <- false;
        acc
      end
      else acc
    in
    walk t parts covered j rest table acc (Hash_table.next table cur)

let insert t ~source tuple =
  let n = Array.length t.stems in
  let idx = ref (-1) in
  Array.iteri (fun i stem -> if stem.s_name = source then idx := i) t.stems;
  if !idx < 0 then invalid_arg ("Eddy.insert: unknown source " ^ source);
  let i = !idx in
  Ctx.charge t.ctx
    (t.ctx.Ctx.costs.filter_atom *. float_of_int t.filter_atoms.(i));
  if not (t.filters.(i) tuple) then []
  else begin
    (* Build into every access method of the SteM. *)
    List.iter
      (fun (_, table) ->
        Ctx.charge t.ctx t.ctx.Ctx.costs.hash_build;
        Hash_table.insert table tuple)
      t.stems.(i).s_tables;
    let parts = Array.make n None in
    let covered = Array.make n false in
    parts.(i) <- Some tuple;
    covered.(i) <- true;
    List.rev (route t parts covered [])
  end

let routing_stats t =
  Array.to_list
    (Array.map (fun s -> s.s_name, s.s_probes, s.s_matches) t.stems)

let decisions t = t.decisions
