open Adp_relation
open Adp_exec
open Adp_optimizer

type t =
  | Static
  | Corrective of Corrective.config
  | Plan_partitioned
  | Competitive of { candidates : int; explore_budget : float }
  | Eddying

let corrective_default = Corrective (Corrective.default_config)

let static_config =
  { Corrective.default_config with poll_interval = infinity }

type outcome = {
  result : Relation.t;
  report : Report.run;
  corrective_stats : Corrective.stats option;
}

(* The run report from virtual-µs clock readings; a field a strategy does
   not track keeps its zero value.  [wall_s] is stamped by [run]. *)
let report ~label ~time ~cpu ~idle ~phases ~result_card ?(stitch_time = 0.0)
    ?(reused = 0) ?(discarded = 0) ?(coverage = 1.0) ?(retries = 0)
    ?(failovers = 0) ?(paged_out = 0) ?(checkpoints = 0) ?degraded_reason
    () =
  { Report.label; time_s = time /. 1e6; cpu_s = cpu /. 1e6;
    idle_s = idle /. 1e6; wall_s = 0.0; phases;
    stitch_time_s = stitch_time /. 1e6; reused; discarded; result_card;
    coverage; retries; failovers; paged_out; checkpoints; degraded_reason }

let run ?preagg ?(label = "run") ?initial_plan ?retry ?trace ?metrics
    ?profile ?wall strategy query catalog ~sources =
  (* Wall timing goes through the one sanctioned wall-reading module;
     no per-site lint waiver needed. *)
  let wall0 = Adp_obs.Wallclock.monotonic_s () in
  (* Static analysis of the query before any strategy runs: catches what
     used to die as [Eddy: unknown relation] or an unqualified column deep
     inside execution, reporting every problem at once. *)
  Adp_analysis.Diagnostic.raise_if_errors ~where:"strategy"
    (Adp_analysis.Analyzer.check_query
       ~lookup:(fun r ->
         try Some (Catalog.schema_of catalog r) with Not_found -> None)
       query);
  let outcome =
    match strategy with
    | Static | Corrective _ ->
      let base =
        match strategy with
        | Corrective c -> c
        | Static | Plan_partitioned | Competitive _ | Eddying -> static_config
      in
      (* An argument that is given replaces the configuration's field. *)
      let pick arg field = Option.value arg ~default:field in
      let pick_opt arg field = if Option.is_some arg then arg else field in
      let config =
        { base with
          preagg = pick preagg base.preagg;
          initial_plan = pick_opt initial_plan base.initial_plan;
          retry = pick retry base.retry; trace = pick trace base.trace;
          metrics = pick_opt metrics base.metrics;
          profile = pick_opt profile base.profile;
          wall = pick_opt wall base.wall }
      in
      let result, stats = Corrective.run ~config query catalog (sources ()) in
      let report =
        report ~label ~time:stats.total_time ~cpu:stats.cpu ~idle:stats.idle
          ~phases:stats.phases ~stitch_time:stats.stitch.Stitchup.time
          ~reused:stats.stitch.Stitchup.reused
          ~discarded:stats.stitch.Stitchup.discarded
          ~result_card:stats.result_card ~coverage:stats.coverage
          ~retries:stats.retries ~failovers:stats.failovers
          ~paged_out:stats.paged_out ~checkpoints:stats.checkpoints
          ?degraded_reason:stats.degraded_reason ()
      in
      { result; report; corrective_stats = Some stats }
    | Plan_partitioned ->
      let result, stats =
        Plan_partition.run ?preagg ?initial_plan query catalog (sources ())
      in
      let report =
        report ~label ~time:stats.total_time ~cpu:stats.cpu ~idle:stats.idle
          ~phases:stats.stages ~result_card:stats.result_card ()
      in
      { result; report; corrective_stats = None }
    | Competitive { candidates; explore_budget } ->
      let result, stats =
        Competition.run ~candidates ~explore_budget query catalog ~sources
      in
      let report =
        report ~label ~time:stats.total_time ~cpu:stats.cpu ~idle:stats.idle
          ~phases:1 ~result_card:stats.result_card ()
      in
      { result; report; corrective_stats = None }
    | Eddying ->
      let ctx = Ctx.create ?trace ?metrics ?wall () in
      let eddy =
        Eddy.create ctx
          ~sources:
            (List.map
               (fun (s : Logical.source) ->
                 s.Logical.name, Catalog.schema_of catalog s.Logical.name)
               query.Logical.sources)
          ~filters:
            (List.map
               (fun (s : Logical.source) -> s.Logical.name, s.Logical.filter)
               query.Logical.sources)
          ~preds:query.Logical.join_preds
      in
      let sink = Sink.create ctx query ~canonical:(Eddy.schema eddy) in
      let consume src tuple =
        let outs = Eddy.insert eddy ~source:(Source.name src) tuple in
        Sink.feed sink ~from:(Eddy.schema eddy) outs
      in
      let srcs = sources () in
      (match Driver.run ctx ~sources:srcs ~consume ?retry () with
       | Driver.Exhausted -> ()
       | Driver.Switched | Driver.Stopped -> assert false);
      let result = Sink.result sink in
      Ctx.sync_metrics ctx;
      let report =
        report ~label ~time:(Ctx.now ctx) ~cpu:(Clock.cpu ctx.Ctx.clock)
          ~idle:(Clock.idle ctx.Ctx.clock) ~phases:1
          ~result_card:(Relation.cardinality result)
          ~coverage:(Source.coverage srcs)
          ~retries:(Adp_obs.Metrics.count ctx.Ctx.retries)
          ~failovers:(Adp_obs.Metrics.count ctx.Ctx.failovers) ()
      in
      { result; report; corrective_stats = None }
  in
  let wall_s = Adp_obs.Wallclock.monotonic_s () -. wall0 in
  { outcome with report = { outcome.report with Report.wall_s } }

(* ------------------------------------------------------------------ *)
(* Naive reference evaluator (test oracle)                             *)
(* ------------------------------------------------------------------ *)

let reference (query : Logical.query) catalog ~sources =
  let srcs = sources () in
  let relation_of name =
    let src = List.find (fun s -> Source.name s = name) srcs in
    let filter =
      let lsrc = List.find (fun s -> s.Logical.name = name) query.sources in
      Predicate.compile lsrc.Logical.filter (Source.schema src)
    in
    (* The whole relation, read directly: draining the source would stop
       at an injected disconnect and answer over a truncated input. *)
    let rel = Relation.create (Source.schema src) in
    Relation.iter
      (fun tuple -> if filter tuple then Relation.append rel tuple)
      (Source.relation src);
    rel
  in
  ignore catalog;
  (* Join predicates are applied as soon as both columns are in scope, and
     checked per tuple pair while the nested loop runs — never materialize
     an unfiltered cross product. *)
  let applied = Hashtbl.create 16 in
  let ready_checks schema =
    List.filter_map
      (fun (a, b) ->
        if (not (Hashtbl.mem applied (a, b)))
           && Schema.mem schema a && Schema.mem schema b
        then begin
          Hashtbl.replace applied (a, b) ();
          let ia = Schema.index schema a and ib = Schema.index schema b in
          Some (fun (t : Tuple.t) -> Value.eq_sql t.(ia) t.(ib))
        end
        else None)
      query.join_preds
  in
  let joined =
    match query.sources with
    | [] -> invalid_arg "Strategy.reference: no sources"
    | first :: rest ->
      List.fold_left
        (fun acc (s : Logical.source) ->
          let r = relation_of s.name in
          let schema = Schema.concat (Relation.schema acc) (Relation.schema r) in
          let checks = ready_checks schema in
          let out = Relation.create schema in
          Relation.iter
            (fun t1 ->
              Relation.iter
                (fun t2 ->
                  let t = Tuple.concat t1 t2 in
                  if List.for_all (fun chk -> chk t) checks then
                    Relation.append out t)
                r)
            acc;
          out)
        (relation_of first.Logical.name)
        rest
  in
  if query.aggs = [] && query.group_cols = [] then begin
    match query.projection with
    | [] -> joined
    | cols ->
      let schema = Relation.schema joined in
      let idx = Array.of_list (List.map (Schema.index schema) cols) in
      Relation.of_list (Schema.project schema cols)
        (List.map (fun t -> Tuple.project t idx) (Relation.to_list joined))
  end
  else begin
    let ctx = Ctx.create () in
    let agg =
      Agg.create ctx ~group_cols:query.group_cols ~aggs:query.aggs
        ~input:Agg.Raw (Relation.schema joined)
    in
    Relation.iter (Agg.add agg) joined;
    Agg.result agg
  end
