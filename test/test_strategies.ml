(* End-to-end strategy tests: every strategy must agree with the naive
   reference evaluator on real workloads, and corrective query processing
   must actually switch plans when fed misleading statistics. *)

open Adp_relation
open Adp_exec
open Adp_optimizer
open Adp_core
open Adp_query
open Adp_datagen
open Helpers

let dataset =
  Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Uniform; seed = 11 }

let skewed_dataset =
  Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Skewed 0.5; seed = 11 }

let strategies =
  [ "static", Strategy.Static;
    "corrective",
    Strategy.Corrective
      { Corrective.default_config with poll_interval = 2e4 };
    "plan-partitioned", Strategy.Plan_partitioned;
    "competitive",
    Strategy.Competitive { candidates = 2; explore_budget = 2e4 };
    "eddy", Strategy.Eddying ]

let check_query ?(ds = dataset) ?(with_cardinalities = false) q_id =
  let q = Workload.query q_id in
  let catalog = Workload.catalog ~with_cardinalities ds q in
  let sources () = Workload.sources ds q () in
  let want = Strategy.reference q catalog ~sources in
  List.iter
    (fun (label, strat) ->
      let o = Strategy.run ~label strat q catalog ~sources in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s matches reference" (Workload.name q_id) label)
        true
        (approx_same_relations o.Strategy.result want))
    strategies

let test_q3a () = check_query Workload.Q3A
let test_q3_dates () = check_query Workload.Q3
let test_q10 () = check_query Workload.Q10
let test_q10a_skewed () = check_query ~ds:skewed_dataset Workload.Q10A
let test_q5 () = check_query Workload.Q5
let test_q5_with_cards () = check_query ~with_cardinalities:true Workload.Q5

(* Static never records its leaves' outputs; the monitor must still learn
   each filtered leaf's pass rate (passed over seen) from the counters. *)
let test_static_leaf_observations () =
  let q = Workload.query Workload.Q3 in
  let catalog = Workload.catalog dataset q in
  let o =
    Strategy.run Strategy.Static q catalog
      ~sources:(Workload.sources dataset q)
  in
  let learned =
    match o.Strategy.corrective_stats with
    | Some st -> st.Corrective.learned.Adp_stats.Selectivity.d_sels
    | None -> Alcotest.fail "static reports corrective stats"
  in
  List.iter
    (fun (s : Logical.source) ->
      let rel = Tpch.table dataset s.Logical.name in
      let pass = Predicate.compile s.Logical.filter (Relation.schema rel) in
      let passed =
        Relation.fold (fun n t -> if pass t then n + 1 else n) 0 rel
      in
      let want =
        float_of_int passed /. float_of_int (Relation.cardinality rel)
      in
      Alcotest.(check (float 0.0)) s.Logical.name want
        (List.assoc (Logical.signature_of_set q [ s.Logical.name ]) learned))
    q.Logical.sources

let test_flights_example () =
  let d =
    Flights.generate
      { Flights.default_config with n_flights = 300; n_travelers = 200 }
  in
  let q = Workload.flights_query in
  let catalog = Workload.flights_catalog d in
  let sources () = Workload.flights_sources d () in
  let want = Strategy.reference q catalog ~sources in
  List.iter
    (fun (label, strat) ->
      let o = Strategy.run ~label strat q catalog ~sources in
      Alcotest.(check bool)
        (Printf.sprintf "flights/%s matches reference" label)
        true
        (approx_same_relations o.Strategy.result want))
    strategies

let test_preagg_strategies_agree () =
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog dataset q in
  let sources () = Workload.sources dataset q () in
  let want = Strategy.reference q catalog ~sources in
  List.iter
    (fun preagg ->
      let o = Strategy.run ~preagg Strategy.Static q catalog ~sources in
      Alcotest.(check bool) "preagg result matches" true
        (approx_same_relations o.Strategy.result want))
    [ Optimizer.Auto; Optimizer.Force Plan.Traditional;
      Optimizer.Force Plan.Pseudogroup;
      Optimizer.Force (Plan.Windowed { initial = 16; max_window = 4096 }) ]

(* A scenario engineered to force corrective switching: the catalog lies —
   it claims the multiplying relation is tiny and the selective one huge,
   so the optimizer starts with the bad plan and must correct. *)
let forced_switch_setup () =
  let rng = Prng.create 99 in
  let f =
    List.init 3000 (fun _ ->
        [| vi (1 + Prng.int rng 40); vi (1 + Prng.int rng 40); vi 1 |])
  in
  (* "bad" has 40 key values, each duplicated 50 times: f ⋈ bad multiplies
     50x.  "good" is a real key table. *)
  let bad =
    List.concat_map
      (fun k -> List.init 50 (fun i -> [| vi (k + 1); vi i |]))
      (List.init 40 Fun.id)
  in
  let good = List.init 40 (fun i -> [| vi (i + 1); vi i |]) in
  let f_schema = Schema.make [ "f.k1"; "f.k2"; "f.v" ] in
  let bad_schema = Schema.make [ "bad.k"; "bad.w" ] in
  let good_schema = Schema.make [ "good.k"; "good.w" ] in
  let q =
    { Logical.sources =
        [ { Logical.name = "f"; filter = Predicate.tt };
          { Logical.name = "bad"; filter = Predicate.tt };
          { Logical.name = "good"; filter = Predicate.tt } ];
      join_preds = [ "f.k1", "bad.k"; "f.k2", "good.k" ];
      group_cols = []; aggs = []; projection = [] }
  in
  let catalog = Catalog.create () in
  Catalog.add catalog "f"
    { Catalog.schema = f_schema; cardinality = Some 3000.0; key = None };
  (* The lie: "bad" is declared a tiny key table, "good" a huge one. *)
  Catalog.add catalog "bad"
    { Catalog.schema = bad_schema; cardinality = Some 10.0; key = Some "bad.k" };
  Catalog.add catalog "good"
    { Catalog.schema = good_schema; cardinality = Some 100000.0;
      key = Some "good.k" };
  let sources () =
    [ Source.create ~name:"f" (Relation.of_list f_schema f) Source.Local;
      Source.create ~name:"bad" (Relation.of_list bad_schema bad) Source.Local;
      Source.create ~name:"good" (Relation.of_list good_schema good) Source.Local ]
  in
  q, catalog, sources

(* Regression: a NULL key matches nothing, not even another NULL.
   r(a) = {NULL, 2, NULL} joined with s(b) = {NULL, 2} on r.a = s.b has
   one row; the engine's join tables once matched NULL to NULL and
   returned three. *)
let test_null_join_keys () =
  let r_schema = Schema.make [ "r.a" ] and s_schema = Schema.make [ "s.b" ] in
  let q =
    { Logical.sources =
        [ { Logical.name = "r"; filter = Predicate.tt };
          { Logical.name = "s"; filter = Predicate.tt } ];
      join_preds = [ "r.a", "s.b" ];
      group_cols = []; aggs = []; projection = [] }
  in
  let catalog = Catalog.create () in
  Catalog.add catalog "r"
    { Catalog.schema = r_schema; cardinality = Some 3.0; key = None };
  Catalog.add catalog "s"
    { Catalog.schema = s_schema; cardinality = Some 2.0; key = None };
  let rel sch vs = Relation.of_list sch (List.map (fun v -> [| v |]) vs) in
  let sources () =
    [ Source.create ~name:"r" (rel r_schema [ Value.Null; vi 2; Value.Null ])
        Source.Local;
      Source.create ~name:"s" (rel s_schema [ Value.Null; vi 2 ]) Source.Local ]
  in
  let want = Strategy.reference q catalog ~sources in
  Alcotest.(check int) "reference rows" 1 (Relation.cardinality want);
  List.iter
    (fun (label, strat) ->
      let o = Strategy.run ~label strat q catalog ~sources in
      Alcotest.(check int) (label ^ " rows") 1
        (Relation.cardinality o.Strategy.result);
      Alcotest.(check bool) (label ^ " matches reference") true
        (approx_same_relations o.Strategy.result want))
    strategies

let test_corrective_switches () =
  let q, catalog, sources = forced_switch_setup () in
  let want = Strategy.reference q catalog ~sources in
  let cfg =
    { Corrective.default_config with
      poll_interval = 5e3; switch_threshold = 0.9; min_leaf_seen = 50 }
  in
  let o = Strategy.run ~label:"forced" (Strategy.Corrective cfg) q catalog ~sources in
  Alcotest.(check bool) "result correct despite switching" true
    (approx_same_relations o.Strategy.result want);
  match o.Strategy.corrective_stats with
  | None -> Alcotest.fail "expected corrective stats"
  | Some stats ->
    Alcotest.(check bool)
      (Printf.sprintf "switched at least once (phases=%d)" stats.Corrective.phases)
      true (stats.Corrective.phases >= 2);
    Alcotest.(check bool) "stitch-up did work" true
      (stats.Corrective.stitch.Stitchup.combos_possible > 0);
    (* The phase log accounts for every source tuple exactly once. *)
    let total_read =
      List.fold_left
        (fun acc (p : Corrective.phase_info) -> acc + p.Corrective.read)
        0 stats.Corrective.phase_log
    in
    Alcotest.(check int) "all tuples read once" (3000 + 2000 + 40) total_read

(* CQP composed with pre-aggregation: phases emit *partial* tuples, the
   leaf partitions visible to stitch-up are pre-aggregated, and the shared
   sink coalesces partials from every phase and from stitch-up.  The paper
   defers the combined numbers to [16] but the mechanism must compose. *)
let test_corrective_with_preagg_switches () =
  let ds = Tpch.generate { Tpch.scale = 0.004; distribution = Tpch.Uniform; seed = 3 } in
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  let sources () = Workload.sources ds q () in
  let want = Strategy.reference q catalog ~sources in
  let sels = Adp_stats.Selectivity.create () in
  let bad = (Optimizer.pessimal q catalog sels).Optimizer.spec in
  (* Re-apply the windowed pre-aggregation to the forced bad plan the same
     way the optimizer would, so every phase and the stitch-up agree. *)
  let preagg = Optimizer.Auto in
  let cfg =
    { Corrective.default_config with
      poll_interval = 5e3; switch_threshold = 0.95; min_leaf_seen = 100 }
  in
  let o =
    Strategy.run ~preagg ~label:"cqp+preagg" ~initial_plan:bad
      (Strategy.Corrective cfg) q catalog ~sources
  in
  Alcotest.(check bool) "cqp + preagg matches reference" true
    (approx_same_relations o.Strategy.result want);
  match o.Strategy.corrective_stats with
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "switched from the bad plan (phases=%d)" s.Corrective.phases)
      true (s.Corrective.phases >= 2)
  | None -> Alcotest.fail "expected corrective stats"

(* One rule for run settings: an argument that is given replaces the
   corrective configuration's field, and an absent one leaves it. *)
let test_run_arguments_override_config () =
  let q = Workload.query Workload.Q10 in
  let catalog = Workload.catalog ~with_cardinalities:true dataset q in
  let sources () = Workload.sources dataset q () in
  let sels = Adp_stats.Selectivity.create () in
  let bad = (Optimizer.pessimal q catalog sels).Optimizer.spec in
  (* switch_threshold 0 pins the first plan, so the run has one phase. *)
  let base = { Corrective.default_config with switch_threshold = 0.0 } in
  let plan ?preagg ?initial_plan cfg =
    let o =
      Strategy.run ?preagg ?initial_plan (Strategy.Corrective cfg) q catalog
        ~sources
    in
    match o.Strategy.corrective_stats with
    | Some { Corrective.phase_log = [ p ]; _ } -> p.Corrective.plan_desc
    | _ -> Alcotest.fail "expected a one-phase corrective run"
  in
  let preaggregated desc =
    let k = "γwin" in
    let m = String.length k in
    let rec from i =
      i + m <= String.length desc && (String.sub desc i m = k || from (i + 1))
    in
    from 0
  in
  let own = plan base in
  let given = plan ~preagg:Optimizer.Auto ~initial_plan:bad base in
  Alcotest.(check bool) "the pessimal plan is not the optimizer's" true
    (plan ~initial_plan:bad base <> own);
  Alcotest.(check bool) "Auto pre-aggregates Q10" true (preaggregated given);
  Alcotest.(check string) "the config's preagg and initial plan are kept"
    given
    (plan { base with preagg = Optimizer.Auto; initial_plan = Some bad });
  let overridden =
    plan ~preagg:Optimizer.No_preagg
      { base with preagg = Optimizer.Auto; initial_plan = Some bad }
  in
  Alcotest.(check bool) "a given preagg argument still wins" false
    (preaggregated overridden);
  Alcotest.(check string) "the config's initial plan stays under it"
    (plan ~initial_plan:bad base) overridden

let test_corrective_memory_budget () =
  (* Interleaved streams keep probing the structures that memory pressure
     paged out, so the swap penalty must show up in the virtual time while
     the answer stays exact.  switch_threshold 0 pins the plan. *)
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog ~with_cardinalities:true dataset q in
  let sources () = Workload.sources dataset q () in
  let want = Strategy.reference q catalog ~sources in
  let run budget =
    let cfg =
      { Corrective.default_config with
        poll_interval = 2e3; switch_threshold = 0.0; memory_budget = budget }
    in
    Strategy.run ~label:"mem" (Strategy.Corrective cfg) q catalog ~sources
  in
  let unconstrained = run None in
  let constrained = run (Some 200) in
  Alcotest.(check bool) "constrained result still exact" true
    (approx_same_relations constrained.Strategy.result want);
  Alcotest.(check bool) "paging costs time" true
    (constrained.Strategy.report.Report.time_s
     > unconstrained.Strategy.report.Report.time_s)

let test_plan_partition_stages () =
  let q = Workload.query Workload.Q5 in
  let catalog = Workload.catalog dataset q in
  let sources = Workload.sources dataset q in
  let result, stats =
    Plan_partition.run q catalog (sources ())
  in
  Alcotest.(check int) "two stages on 6 relations" 2 stats.Plan_partition.stages;
  Alcotest.(check bool) "materialized something" true
    (stats.Plan_partition.materialized_card > 0);
  let want = Strategy.reference q catalog ~sources in
  Alcotest.(check bool) "plan partitioning correct" true
    (approx_same_relations result want)

(* The materialization between the stages holds only the columns stage 2
   reads: the stage-1 relations' query outputs and their join columns to
   the remaining relations.  The optimizer's first stage is customer,
   supplier, nation and region, which keeps n_name, c_custkey and
   s_suppkey (14 columns at full width); the poor plan's is lineitem,
   supplier, nation and region, which keeps l_extendedprice, l_discount,
   n_name, l_orderkey and s_nationkey (18 at full width). *)
let test_plan_partition_materializes_what_stage2_reads () =
  let q = Workload.query Workload.Q5 in
  let catalog = Workload.catalog dataset q in
  let sources = Workload.sources dataset q in
  let true_catalog = Workload.catalog ~with_cardinalities:true dataset q in
  let bad =
    (Optimizer.pessimal q true_catalog (Adp_stats.Selectivity.create ()))
      .Optimizer.spec
  in
  List.iter
    (fun (label, initial_plan, width) ->
      let result, stats =
        Plan_partition.run ?initial_plan q catalog (sources ())
      in
      Alcotest.(check int) (label ^ ": materialized width") width
        stats.Plan_partition.materialized_width;
      Alcotest.(check bool) (label ^ ": result exact") true
        (approx_same_relations result (Strategy.reference q catalog ~sources)))
    [ ("optimized", None, 3); ("poor start", Some bad, 5) ]

let test_competition_details () =
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog dataset q in
  let sources = Workload.sources dataset q in
  let _, stats =
    Competition.run ~candidates:3 ~explore_budget:3e4 q catalog ~sources
  in
  Alcotest.(check bool) "winner in range" true
    (stats.Competition.winner >= 0
    && stats.Competition.winner < stats.Competition.candidates);
  Alcotest.(check bool) "explore time recorded" true
    (stats.Competition.explore_time > 0.0)

(* Paper's Figure 2, "Adaptive - Cardinalities" vs "Static - Cardinalities":
   when estimates are right, corrective processing must cost only its
   re-optimization overhead — it must not churn through needless switches
   (a regression we hit when observed selectivities were extrapolated
   multiplicatively over aligned sorted prefixes). *)
let test_adaptivity_harmless_with_good_estimates () =
  List.iter
    (fun qid ->
      let q = Workload.query qid in
      let catalog = Workload.catalog ~with_cardinalities:true dataset q in
      let sources () = Workload.sources dataset q () in
      let static = Strategy.run ~label:"s" Strategy.Static q catalog ~sources in
      let adaptive =
        Strategy.run ~label:"a"
          (Strategy.Corrective
             { Corrective.default_config with poll_interval = 5e3 })
          q catalog ~sources
      in
      let s = static.Strategy.report.Report.time_s in
      let a = adaptive.Strategy.report.Report.time_s in
      Alcotest.(check bool)
        (Printf.sprintf "%s: adaptive (%.3fs) within 30%% of static (%.3fs)"
           (Workload.name qid) a s)
        true
        (a <= 1.3 *. s))
    Workload.evaluated

let test_histogram_assisted_corrective () =
  (* The §4.5 extension must stay correct and keep switching. *)
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog ~with_cardinalities:false dataset q in
  let sources () = Workload.sources dataset q () in
  let want = Strategy.reference q catalog ~sources in
  let sels = Adp_stats.Selectivity.create () in
  let true_catalog = Workload.catalog ~with_cardinalities:true dataset q in
  let bad = (Optimizer.pessimal q true_catalog sels).Optimizer.spec in
  let cfg =
    { Corrective.default_config with
      poll_interval = 5e3; use_histograms = true; min_leaf_seen = 100 }
  in
  let o =
    Strategy.run ~label:"hist" ~initial_plan:bad (Strategy.Corrective cfg) q
      catalog ~sources
  in
  Alcotest.(check bool) "histogram-assisted result exact" true
    (approx_same_relations o.Strategy.result want)

(* Every float the monitor feeds the re-optimizer, pinned: an MD5 over
   the bits of each poll's observed selectivities, cost-to-go and switch
   cost.  Covers the sorted-pair range estimate (Q5, Q10A: orders and
   lineitem arrive sorted on the order key) and the histogram estimator
   (Q3A with [use_histograms]); a refactor of either must leave every
   bit in place. *)
let poll_digest ?initial_plan ~use_histograms ~poll_interval q_id =
  let q = Workload.query q_id in
  let catalog = Workload.catalog ~with_cardinalities:false dataset q in
  let trace = Adp_obs.Trace.memory () in
  let cfg =
    { Corrective.default_config with poll_interval; use_histograms }
  in
  ignore
    (Strategy.run ?initial_plan ~trace (Strategy.Corrective cfg) q catalog
       ~sources:(Workload.sources dataset q));
  let buf = Buffer.create 4096 in
  let add x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let polls = ref 0 in
  List.iter
    (function
      | _, Adp_obs.Trace.Reopt_poll { observed_sel; est_cost; switch_cost; _ }
        ->
        incr polls;
        List.iter (fun (_, sel) -> add sel) observed_sel;
        add est_cost;
        add switch_cost
      | _ -> ())
    (Adp_obs.Trace.events trace);
  (!polls, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_poll_estimates_pinned () =
  let check name (polls, hex) (got_polls, got_hex) =
    Alcotest.(check int) (name ^ " polls") polls got_polls;
    Alcotest.(check string) (name ^ " digest") hex got_hex
  in
  check "Q5" (1, "da78d8a96d45f66888761d68dc01119b")
    (poll_digest ~use_histograms:false ~poll_interval:2e4 Workload.Q5);
  check "Q10A" (1, "843953645942377f9c973e49f3012273")
    (poll_digest ~use_histograms:false ~poll_interval:2e4 Workload.Q10A);
  let q = Workload.query Workload.Q3A in
  let bad =
    (Optimizer.pessimal q
       (Workload.catalog ~with_cardinalities:true dataset q)
       (Adp_stats.Selectivity.create ()))
      .Optimizer.spec
  in
  check "Q3A histograms" (18, "f5e644a5836281190f7d5cd055b648bb")
    (poll_digest ~initial_plan:bad ~use_histograms:true ~poll_interval:5e3
       Workload.Q3A)

let test_plan_partition_with_initial_plan () =
  (* Forcing the poor starting plan: for a 4-relation query the single
     stage IS that plan; for Q5 the first stage cuts it after 3 joins. *)
  let q = Workload.query Workload.Q5 in
  let catalog = Workload.catalog dataset q in
  let sources = Workload.sources dataset q in
  let sels = Adp_stats.Selectivity.create () in
  let true_catalog = Workload.catalog ~with_cardinalities:true dataset q in
  let bad = (Optimizer.pessimal q true_catalog sels).Optimizer.spec in
  let result, stats =
    Plan_partition.run ~initial_plan:bad q catalog (sources ())
  in
  Alcotest.(check int) "two stages" 2 stats.Plan_partition.stages;
  let want = Strategy.reference q catalog ~sources in
  Alcotest.(check bool) "correct from poor start" true
    (approx_same_relations result want)

let test_sink_adapts_schemas () =
  (* Feeding the sink under two column orders must agree. *)
  let ctx = Ctx.create () in
  let q =
    { Logical.sources = [ { Logical.name = "r"; filter = Predicate.tt } ];
      join_preds = []; group_cols = []; aggs = []; projection = [] }
  in
  let canonical = Schema.make [ "r.a"; "r.b" ] in
  let sink = Sink.create ctx q ~canonical in
  Sink.feed sink ~from:canonical [ [| vi 1; vi 2 |] ];
  Sink.feed sink ~from:(Schema.make [ "r.b"; "r.a" ]) [ [| vi 20; vi 10 |] ];
  check_bag "adapted"
    (Relation.to_list (Sink.result sink))
    [ [| vi 1; vi 2 |]; [| vi 10; vi 20 |] ]

let test_sink_views_match_adapted_feeds () =
  (* A sink reads each feeding schema through its own view; the result
     must equal feeding the same tuples adapted into the canonical
     schema, for raw and partial aggregates and for a projection. *)
  let canonical = Schema.make [ "r.g"; "r.x"; "s.y" ] in
  let other = Schema.make [ "s.y"; "r.g"; "r.x" ] in
  let rows =
    [ [ 1; 10; 5 ]; [ 2; 20; 6 ]; [ 1; 30; 7 ]; [ 3; 40; 8 ]; [ 2; 50; 9 ] ]
    |> List.map (fun l -> Array.of_list (List.map vi l))
  in
  let adapt ~from ~into tuples =
    let perm = Schema.permutation ~from ~into in
    List.map (fun t -> Tuple.project t perm) tuples
  in
  let in_other = adapt ~from:canonical ~into:other rows in
  let query ~aggs ~projection =
    { Logical.sources =
        [ { Logical.name = "r"; filter = Predicate.tt };
          { Logical.name = "s"; filter = Predicate.tt } ];
      join_preds = []; group_cols = (if aggs = [] then [] else [ "r.g" ]);
      aggs; projection }
  in
  let agg_specs =
    [ Aggregate.sum ~name:"sx" (Expr.col "r.x");
      Aggregate.count_all ~name:"n";
      Aggregate.min_of ~name:"my" (Expr.col "s.y");
      Aggregate.avg ~name:"ay" (Expr.col "s.y") ]
  in
  (* Partial inputs: group key then the accumulator columns. *)
  let partial = Schema.make ([ "r.g" ] @ Aggregate.partial_names agg_specs) in
  let partial_other =
    Schema.make (List.rev (Array.to_list (Schema.columns partial)))
  in
  let partial_rows =
    List.map
      (fun r -> [| r.(0); r.(1); vi 1; r.(2); r.(2); vi 1 |])
      rows
  in
  let check name q ~canonical ~other ~first ~second =
    let adapted = adapt ~from:other ~into:canonical second in
    let viewed = Sink.create (Ctx.create ()) q ~canonical in
    Sink.feed viewed ~from:canonical first;
    Sink.feed viewed ~from:other second;
    Sink.feed viewed ~from:canonical first;
    let copied = Sink.create (Ctx.create ()) q ~canonical in
    Sink.feed copied ~from:canonical first;
    Sink.feed copied ~from:canonical adapted;
    Sink.feed copied ~from:canonical first;
    Alcotest.(check (list (array (of_pp Value.pp))))
      name
      (Relation.to_list (Sink.result copied))
      (Relation.to_list (Sink.result viewed))
  in
  check "raw aggregates" (query ~aggs:agg_specs ~projection:[]) ~canonical
    ~other ~first:rows ~second:in_other;
  let partial_in_other =
    adapt ~from:partial ~into:partial_other partial_rows
  in
  check "partial aggregates" (query ~aggs:agg_specs ~projection:[])
    ~canonical:partial ~other:partial_other ~first:partial_rows
    ~second:partial_in_other;
  check "projection" (query ~aggs:[] ~projection:[ "s.y"; "r.g" ]) ~canonical
    ~other ~first:rows ~second:in_other;
  check "no projection" (query ~aggs:[] ~projection:[]) ~canonical ~other
    ~first:rows ~second:in_other

(* ---------------- Join layouts ---------------- *)

(* Every bundled query with the catalog its plans resolve scans through
   and its source factory. *)
let layout_workloads =
  let fds =
    Flights.generate
      { Flights.default_config with n_flights = 300; n_travelers = 200 }
  in
  List.map
    (fun qid ->
      let q = Workload.query qid in
      ( Workload.name qid, q, Workload.catalog ~with_cardinalities:true dataset q,
        Workload.sources dataset q ))
    Workload.all
  @ [ ( "flights", Workload.flights_query,
        Workload.flights_catalog ~with_cardinalities:true fds,
        Workload.flights_sources fds ) ]

let narrowed q catalog spec =
  Plan.instantiate (Ctx.create ()) spec ~schema_of:(Catalog.schema_of catalog)
    ~keep:(Logical.keep q)

(* The optimal and the pessimal plan of each query, without and with
   pre-aggregation. *)
let layout_plans q catalog =
  let sels = Adp_stats.Selectivity.create () in
  List.concat_map
    (fun preagg ->
      List.map
        (fun (r : Optimizer.result) ->
          narrowed q catalog
            (Optimizer.apply_preagg_strategy preagg q r.Optimizer.spec))
        [ Optimizer.optimize q catalog sels; Optimizer.pessimal q catalog sels ])
    [ Optimizer.No_preagg; Optimizer.Auto ]

let node_schemas plan =
  List.map (fun (sg, schema, _, _) -> (sg, schema)) (Plan.node_results plan)

(* A join's columns depend on its relation set alone: two plans of one
   query give every subexpression they share the same columns. *)
let test_layout_same_columns () =
  List.iter
    (fun (name, q, catalog, _) ->
      match layout_plans q catalog with
      | [ best; worst; best_pa; worst_pa ] ->
        List.iter
          (fun (a, b) ->
            let shared =
              List.filter_map
                (fun (sg, x) ->
                  Option.map (fun y -> (sg, x, y))
                    (List.assoc_opt sg (node_schemas b)))
                (node_schemas a)
            in
            Alcotest.(check bool) (name ^ ": the plans share their root") true
              (shared <> []);
            List.iter
              (fun (sg, x, y) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s has one column set" name sg)
                  true (Schema.same_columns x y))
              shared)
          [ (best, worst); (best_pa, worst_pa) ]
      | _ -> Alcotest.fail "four plans")
    layout_workloads

(* The root carries the query's outputs and nothing else from a base
   relation: join keys are gone once both their sides are joined. *)
let test_layout_root_outputs () =
  List.iter
    (fun (name, (q : Logical.query), catalog, _) ->
      let outputs =
        q.group_cols
        @ List.concat_map (fun (a : Aggregate.spec) -> Expr.columns a.expr)
            q.aggs
        @ q.projection
      in
      let base c =
        match Logical.relation_of_column_opt c with
        | Some r -> List.mem r (Logical.source_names q)
        | None -> false
      in
      List.iteri
        (fun i plan ->
          let root = Schema.columns (Plan.schema plan) in
          Array.iter
            (fun c ->
              Alcotest.(check bool)
                (Printf.sprintf "%s plan %d: root column %s is read" name i c)
                true
                (List.mem c outputs || not (base c)))
            root;
          (* Plans 0 and 1 have no pre-aggregation: every output is there. *)
          if i < 2 then
            List.iter
              (fun c ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s plan %d: root has %s" name i c)
                  true
                  (Array.mem c root))
              outputs)
        (layout_plans q catalog))
    layout_workloads

let spj sql = Adp_query.Sql_parser.parse ~schema_of:Tpch.schema_of sql

let spj_from =
  " FROM customer, orders, lineitem\
   \ WHERE customer.c_custkey = orders.o_custkey\
   \ AND lineitem.l_orderkey = orders.o_orderkey"

(* [SELECT *] keeps every column at every join; a SELECT list keeps its
   columns and the keys of joins still to come. *)
let test_layout_select_star () =
  let star = spj ("SELECT *" ^ spj_from) in
  let catalog = Workload.catalog ~with_cardinalities:true dataset star in
  let width rels =
    List.fold_left
      (fun n r -> n + Schema.arity (Catalog.schema_of catalog r))
      0 rels
  in
  List.iter
    (fun plan ->
      List.iter2
        (fun (info : Plan.join_info) (sg, schema, _, _) ->
          Alcotest.(check int) (sg ^ " keeps every column")
            (width info.Plan.relations) (Schema.arity schema))
        (Plan.join_infos plan) (Plan.node_results plan))
    (layout_plans star catalog);
  let proj = spj ("SELECT customer.c_name, lineitem.l_quantity" ^ spj_from) in
  let plan =
    narrowed proj catalog
      (Plan.join
         (Plan.join (Plan.scan "customer") (Plan.scan "orders")
            ~on:[ ("customer.c_custkey", "orders.o_custkey") ])
         (Plan.scan "lineitem")
         ~on:[ ("orders.o_orderkey", "lineitem.l_orderkey") ])
  in
  Alcotest.(check (list (list string)))
    "SELECT list and pending keys"
    [ [ "customer.c_name"; "orders.o_orderkey" ];
      [ "customer.c_name"; "lineitem.l_quantity" ] ]
    (List.map
       (fun (_, schema, _, _) -> Array.to_list (Schema.columns schema))
       (Plan.node_results plan))

(* A corrective run started on the pessimal plan, polled often and told
   to take any plan its optimizer prefers, switches and stitches up
   across the narrowed layouts, and still returns the reference answer.
   Every query switches without pre-aggregation; with it, some runs
   keep their plan (flights' among them), so only one switch is asked
   for there, to cover the partials in a stitch-up. *)
let test_layout_forced_switch () =
  let cfg =
    { Corrective.default_config with
      poll_interval = 2e3; min_leaf_seen = 20; switch_threshold = 2.0 }
  in
  let switched_with_preagg =
    List.map
      (fun (name, q, catalog, sources) ->
        let want = Strategy.reference q catalog ~sources in
        let bad =
          (Optimizer.pessimal q catalog (Adp_stats.Selectivity.create ()))
            .Optimizer.spec
        in
        let run preagg =
          let o =
            Strategy.run ~preagg ~initial_plan:bad (Strategy.Corrective cfg) q
              catalog ~sources
          in
          Alcotest.(check bool)
            (name ^ " matches reference")
            true
            (approx_same_relations o.Strategy.result want);
          o.Strategy.report.Report.phases >= 2
        in
        Alcotest.(check bool) (name ^ " switched") true
          (run Optimizer.No_preagg);
        run Optimizer.Auto)
      layout_workloads
  in
  Alcotest.(check bool) "a pre-aggregated run switched" true
    (List.mem true switched_with_preagg)

let test_rewrite () =
  let e = Expr.rename (fun c -> "m." ^ c) Expr.(Add (col "a", int 1)) in
  Alcotest.(check string) "expr renamed" "(m.a + 1)" (Expr.to_string e)

(* The oracle answers over every source's whole relation: a source
   factory that injects a permanent disconnect (and so makes the engine
   answer over partial input) leaves the reference answer as it is. *)
let test_reference_reads_whole_relations () =
  let q = Workload.query Workload.Q3 in
  let catalog = Workload.catalog dataset q in
  let clean = Workload.sources dataset q in
  let disconnecting () =
    List.map
      (fun s ->
        Source.inject s
          (Source.Disconnect { after_tuples = 10; rejoin_after_s = None });
        s)
      (clean ())
  in
  let want = Strategy.reference q catalog ~sources:clean in
  Alcotest.(check bool) "the clean answer is not empty" true
    (Relation.cardinality want > 0);
  check_approx_rel "disconnecting sources, same reference answer" want
    (Strategy.reference q catalog ~sources:disconnecting)

(* A global aggregate whose join produces nothing still answers one row,
   as SQL does, under every execution path and the reference. *)
let test_global_aggregate_empty_input () =
  let q =
    spj
      "SELECT COUNT(*) AS c, SUM(lineitem.l_quantity) AS s FROM orders, \
       lineitem WHERE orders.o_orderkey = lineitem.l_orderkey AND \
       orders.o_orderkey < 0"
  in
  let catalog = Workload.catalog dataset q in
  let sources () = Workload.sources dataset q () in
  let rows rel = List.map Tuple.to_string (Relation.to_list rel) in
  Alcotest.(check (list string)) "reference" [ "[0; NULL]" ]
    (rows (Strategy.reference q catalog ~sources));
  List.iter
    (fun (label, strat) ->
      let o = Strategy.run ~label strat q catalog ~sources in
      Alcotest.(check (list string)) label [ "[0; NULL]" ]
        (rows o.Strategy.result))
    [ "static", Strategy.Static;
      "corrective",
      Strategy.Corrective
        { Corrective.default_config with poll_interval = 2e4 } ]

let suite =
  [ Alcotest.test_case "global aggregate over empty input" `Quick
      test_global_aggregate_empty_input;
    Alcotest.test_case "reference reads whole relations" `Quick
      test_reference_reads_whole_relations;
    Alcotest.test_case "Q3A all strategies" `Slow test_q3a;
    Alcotest.test_case "Q3 (with dates) all strategies" `Slow test_q3_dates;
    Alcotest.test_case "Q10 all strategies" `Slow test_q10;
    Alcotest.test_case "Q10A skewed all strategies" `Slow test_q10a_skewed;
    Alcotest.test_case "Q5 all strategies" `Slow test_q5;
    Alcotest.test_case "NULL join keys match nothing" `Quick
      test_null_join_keys;
    Alcotest.test_case "static learns leaf pass rates" `Quick
      test_static_leaf_observations;
    Alcotest.test_case "Q5 with cardinalities" `Slow test_q5_with_cards;
    Alcotest.test_case "flights example" `Slow test_flights_example;
    Alcotest.test_case "preagg strategies agree" `Slow
      test_preagg_strategies_agree;
    Alcotest.test_case "corrective actually switches" `Quick
      test_corrective_switches;
    Alcotest.test_case "corrective + preagg across phases" `Slow
      test_corrective_with_preagg_switches;
    Alcotest.test_case "run arguments override the config, absent ones keep it"
      `Quick test_run_arguments_override_config;
    Alcotest.test_case "corrective under memory pressure" `Quick
      test_corrective_memory_budget;
    Alcotest.test_case "adaptivity harmless with good estimates" `Slow
      test_adaptivity_harmless_with_good_estimates;
    Alcotest.test_case "histogram-assisted corrective" `Slow
      test_histogram_assisted_corrective;
    Alcotest.test_case "poll estimates pinned" `Quick
      test_poll_estimates_pinned;
    Alcotest.test_case "plan partitioning from poor start" `Slow
      test_plan_partition_with_initial_plan;
    Alcotest.test_case "plan partitioning stages" `Slow
      test_plan_partition_stages;
    Alcotest.test_case "plan partitioning materializes what stage 2 reads"
      `Slow test_plan_partition_materializes_what_stage2_reads;
    Alcotest.test_case "competition details" `Quick test_competition_details;
    Alcotest.test_case "sink adapts schemas" `Quick test_sink_adapts_schemas;
    Alcotest.test_case "sink views = adapted feeds" `Quick
      test_sink_views_match_adapted_feeds;
    Alcotest.test_case "rewrite helpers" `Quick test_rewrite;
    Alcotest.test_case "join layouts: one column set per relation set" `Quick
      test_layout_same_columns;
    Alcotest.test_case "join layouts: the root holds only outputs" `Quick
      test_layout_root_outputs;
    Alcotest.test_case "join layouts: SELECT * keeps every column" `Quick
      test_layout_select_star;
    Alcotest.test_case "join layouts: forced switch matches reference" `Slow
      test_layout_forced_switch ]
