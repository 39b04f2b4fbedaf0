open Adp_relation
open Adp_exec
open Adp_optimizer

type stats = {
  stages : int;
  materialized_card : int;
  materialized_width : int;
  total_time : float;
  cpu : float;
  idle : float;
  result_card : int;
}

(* One statically optimized execution of [query] over [sources], charging
   the shared context.  [spec] overrides the optimizer's plan choice. *)
let run_stage ?(preagg = Optimizer.No_preagg) ?spec ctx query catalog sources =
  let spec =
    match spec with
    | Some s -> s
    | None ->
      let sels = Adp_stats.Selectivity.create () in
      (Optimizer.optimize ~preagg query catalog sels).Optimizer.spec
  in
  let plan =
    (* Single-stage executions never stitch: skip intermediate recording. *)
    Plan.instantiate ~record_outputs:false ctx spec
      ~schema_of:(Catalog.schema_of catalog) ~keep:(Logical.keep query)
  in
  let sink = Sink.create ctx query ~canonical:(Plan.schema plan) in
  let consume src tuple =
    let outs = Plan.push plan ~source:(Source.name src) tuple in
    Sink.feed sink ~from:(Plan.schema plan) outs
  in
  (match Driver.run ctx ~sources ~consume () with
   | Driver.Exhausted -> ()
   | Driver.Switched | Driver.Stopped -> assert false);
  Sink.feed sink ~from:(Plan.schema plan) (Plan.flush plan);
  Sink.result sink

let bare_of col =
  match String.rindex_opt col '.' with
  | None -> col
  | Some i -> String.sub col (i + 1) (String.length col - i - 1)

(* Greedy choice of the stage-1 relation set: start from the smallest
   estimated leaf and repeatedly add the connected relation minimizing the
   estimated intermediate size. *)
let stage1_set query catalog ~size =
  let est = Cardinality.create query catalog (Adp_stats.Selectivity.create ()) in
  let names = Logical.source_names query in
  let start =
    List.fold_left
      (fun best r ->
        match best with
        | None -> Some r
        | Some b ->
          if Cardinality.leaf_cardinality est r
             < Cardinality.leaf_cardinality est b
          then Some r
          else best)
      None names
  in
  let rec grow set =
    if List.length set >= size then set
    else begin
      let candidates =
        List.filter
          (fun r ->
            (not (List.mem r set))
            && Logical.preds_between query ~inside:set ~outside:[ r ] <> [])
          names
      in
      match candidates with
      | [] -> set
      | first :: _ ->
        let best =
          List.fold_left
            (fun b r ->
              if Cardinality.set_cardinality est (r :: set)
                 < Cardinality.set_cardinality est (b :: set)
              then r
              else b)
            first candidates
        in
        grow (best :: set)
    end
  in
  match start with None -> [] | Some s -> grow [ s ]

(* When the first stage comes from a given (possibly poor) plan, cut that
   plan after [size] relations by descending into its larger subtree. *)
let rec descend_to_stage1 spec ~size =
  if List.length (Plan.relations spec) <= size then spec
  else
    match spec with
    | Plan.Join j ->
      let bigger =
        if List.length (Plan.relations j.left)
           >= List.length (Plan.relations j.right)
        then j.left
        else j.right
      in
      descend_to_stage1 bigger ~size
    | Plan.Scan _ | Plan.Preagg _ -> spec

(* The first stage joins this many relations: the plan breaks after three
   joins. *)
let stage1_size = 4

let run ?(preagg = Optimizer.No_preagg) ?initial_plan (query : Logical.query)
    catalog sources =
  let ctx = Ctx.create () in
  let n = List.length query.sources in
  let finish stages (materialized, width) result =
    ( result,
      { stages; materialized_card = materialized; materialized_width = width;
        total_time = Ctx.now ctx; cpu = Clock.cpu ctx.Ctx.clock;
        idle = Clock.idle ctx.Ctx.clock;
        result_card = Relation.cardinality result } )
  in
  if n <= stage1_size then
    finish 1 (0, 0)
      (run_stage ~preagg ?spec:initial_plan ctx query catalog sources)
  else begin
    let stage1_spec =
      Option.map (descend_to_stage1 ~size:stage1_size) initial_plan
    in
    let set =
      match stage1_spec with
      | Some spec -> Plan.relations spec
      | None -> stage1_set query catalog ~size:stage1_size
    in
    let in_set r = List.mem r set in
    (* Stage 1 materializes only what stage 2 reads: the columns the
       query's join layout keeps for the stage-1 relation set (all of
       them, as [SELECT *], if it keeps none). *)
    let keep = Logical.keep query ~relations:set in
    let projection =
      List.concat_map
        (fun r ->
          List.filter keep
            (Array.to_list (Schema.columns (Catalog.schema_of catalog r))))
        set
    in
    let stage1_query =
      { Logical.sources = List.filter (fun s -> in_set s.Logical.name) query.sources;
        join_preds =
          List.filter
            (fun (a, b) ->
              in_set (Logical.relation_of_column a)
              && in_set (Logical.relation_of_column b))
            query.join_preds;
        group_cols = []; aggs = []; projection }
    in
    let stage1_sources =
      List.filter (fun s -> in_set (Source.name s)) sources
    in
    let m =
      run_stage ?spec:stage1_spec ctx stage1_query catalog stage1_sources
    in
    (* Rebase the remainder of the query on the materialized result. *)
    let rename c =
      if in_set (Logical.relation_of_column c) then "_m1." ^ bare_of c else c
    in
    let m_schema = Schema.rename_qualifier (Relation.schema m) "_m1" in
    let m_rel = Relation.of_list m_schema (Relation.to_list m) in
    let stage2_query =
      { Logical.sources =
          { Logical.name = "_m1"; filter = Predicate.tt }
          :: List.filter (fun s -> not (in_set s.Logical.name)) query.sources;
        join_preds =
          List.filter_map
            (fun (a, b) ->
              let ia = in_set (Logical.relation_of_column a)
              and ib = in_set (Logical.relation_of_column b) in
              if ia && ib then None else Some (rename a, rename b))
            query.join_preds;
        group_cols = List.map rename query.group_cols;
        aggs =
          List.map
            (fun (a : Aggregate.spec) ->
              { a with expr = Expr.rename rename a.expr })
            query.aggs;
        projection = List.map rename query.projection }
    in
    let catalog2 = Catalog.create () in
    List.iter
      (fun s ->
        if not (in_set s.Logical.name) then
          Catalog.add catalog2 s.Logical.name (Catalog.info catalog s.Logical.name))
      query.sources;
    Catalog.add catalog2 "_m1"
      { Catalog.schema = m_schema;
        cardinality = Some (float_of_int (Relation.cardinality m));
        key = None };
    let stage2_sources =
      Source.create ~name:"_m1" m_rel Source.Local
      :: List.filter (fun s -> not (in_set (Source.name s))) sources
    in
    let result = run_stage ~preagg ctx stage2_query catalog2 stage2_sources in
    finish 2
      (Relation.cardinality m, Schema.arity m_schema)
      result
  end
