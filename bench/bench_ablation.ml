(* Ablations of the design choices DESIGN.md calls out:

   - CQP re-optimization poll interval (the paper fixes 1 s and notes the
     scheme is stable; we sweep it);
   - priority-queue length in the complementary join (the paper reports
     informal experiments with shorter queues);
   - initial window of the adjustable-window pre-aggregation;
   - stitch-up with state-structure reuse disabled;
   - redundant computation (competition) vs corrective processing. *)

open Adp_datagen
open Adp_exec
open Adp_core
open Adp_query
open Bench_common

let q3a = Workload.Q3A
let q10a = Workload.Q10A

(* Unified BENCH_ablation.json cells, appended by each sweep. *)
let json = ref []
let jcell c = json := c :: !json

let run_corrective ?(reuse = true) ~poll qid =
  (* Recovery scenario: start from the documented poor no-statistics plan. *)
  let ds = Lazy.force uniform in
  let q = Workload.query qid in
  let catalog = Workload.catalog ~with_cardinalities:false ds q in
  let sources () = Workload.sources ds q () in
  let cfg =
    { corrective_config with poll_interval = poll;
      reuse_intermediates = reuse }
  in
  Strategy.run ~label:"ablation"
    ~initial_plan:(pessimal_plan qid uniform)
    (Strategy.Corrective cfg) q catalog ~sources

let poll_sweep () =
  let rows =
    List.map
      (fun poll ->
        let o = run_corrective ~poll Workload.Q5 in
        let phases =
          match o.Strategy.corrective_stats with
          | Some s -> s.Corrective.phases
          | None -> 1
        in
        let key = Printf.sprintf "poll/%.0fms" (poll /. 1e3) in
        jcell (Bjson.time (key ^ "/time") o.Strategy.report.Report.time_s);
        jcell (Bjson.count (key ^ "/phases") phases);
        [ Printf.sprintf "%.0f ms" (poll /. 1e3);
          seconds o.Strategy.report.Report.time_s; string_of_int phases ])
      [ 2e3; 5e3; 2e4; 1e5; 1e6 ]
  in
  Report.table
    ~title:"Ablation: CQP poll interval (Q5, uniform, no statistics)"
    ~header:[ "poll interval"; "time"; "phases" ] rows

let pq_sweep () =
  let ds = Lazy.force skewed in
  let rng = Prng.create 3 in
  let li = Perturb.swap_fraction rng ds.Tpch.lineitem 0.01 in
  let ord = Perturb.swap_fraction rng ds.Tpch.orders 0.01 in
  let rows =
    List.map
      (fun qlen ->
        let variant =
          if qlen = 0 then Comp_join.Naive else Comp_join.Priority_queue qlen
        in
        let o = Bench_figure5.run_comp variant li ord in
        let merged =
          match o.Bench_figure5.stats with
          | Some st ->
            fst st.Comp_join.merge_routed + snd st.Comp_join.merge_routed
          | None -> 0
        in
        let key =
          Printf.sprintf "pq/%s"
            (if qlen = 0 then "naive" else string_of_int qlen)
        in
        jcell (Bjson.time (key ^ "/time") o.Bench_figure5.time_s);
        jcell (Bjson.count (key ^ "/routed-merge") merged);
        [ (if qlen = 0 then "naive" else string_of_int qlen);
          seconds o.Bench_figure5.time_s; Report.human_int merged ])
      [ 0; 16; 64; 256; 1024; 4096 ]
  in
  Report.table
    ~title:
      "Ablation: priority-queue length, complementary join (skewed, 1% \
       reordered)"
    ~header:[ "queue length"; "time"; "routed to merge" ] rows

let window_sweep () =
  let ds = Lazy.force skewed in
  let q = Workload.query q10a in
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  let rows =
    List.map
      (fun initial ->
        let sources () =
          Workload.sources ~model:(Source.Bandwidth 600_000.0) ds q ()
        in
        let preagg =
          Adp_optimizer.Optimizer.Force
            (Plan.Windowed { initial; max_window = 65536 })
        in
        let o = Strategy.run ~preagg ~label:"win" Strategy.Static q catalog ~sources in
        jcell
          (Bjson.time
             (Printf.sprintf "window/%d/time" initial)
             o.Strategy.report.Report.time_s);
        [ string_of_int initial; seconds o.Strategy.report.Report.time_s ])
      [ 1; 16; 64; 1024; 16384 ]
  in
  Report.table
    ~title:"Ablation: initial pre-aggregation window (Q10A, skewed)"
    ~header:[ "initial window"; "time" ] rows

let reuse_ablation () =
  let rows =
    List.map
      (fun (label, reuse) ->
        let o = run_corrective ~reuse ~poll:poll_interval q10a in
        match o.Strategy.corrective_stats with
        | Some s ->
          let key = Bjson.slug ("reuse/" ^ label) in
          jcell
            (Bjson.time (key ^ "/stitch-time")
               (s.Corrective.stitch.Stitchup.time /. 1e6));
          jcell (Bjson.count (key ^ "/reused") s.Corrective.stitch.Stitchup.reused);
          jcell
            (Bjson.count (key ^ "/recomputed")
               s.Corrective.stitch.Stitchup.recomputed_uniform);
          [ label; seconds (s.Corrective.stitch.Stitchup.time /. 1e6);
            Report.human_int s.Corrective.stitch.Stitchup.reused;
            Report.human_int s.Corrective.stitch.Stitchup.recomputed_uniform ]
        | None -> [ label; "-"; "-"; "-" ])
      [ "reuse enabled", true; "reuse disabled", false ]
  in
  Report.table
    ~title:"Ablation: stitch-up state-structure reuse (Q10A, uniform)"
    ~header:[ "configuration"; "stitch-up time"; "reused"; "recomputed" ] rows

let competition_vs_corrective () =
  let ds = Lazy.force uniform in
  let q = Workload.query q3a in
  let catalog = Workload.catalog ~with_cardinalities:false ds q in
  let sources () = Workload.sources ds q () in
  let rows =
    List.map
      (fun (label, strat) ->
        let o = Strategy.run ~label strat q catalog ~sources in
        jcell
          (Bjson.time
             (Bjson.slug ("class/" ^ label) ^ "/time")
             o.Strategy.report.Report.time_s);
        [ label; seconds o.Strategy.report.Report.time_s ])
      [ "corrective", Strategy.Corrective corrective_config;
        "competition (2 plans)",
        Strategy.Competitive { candidates = 2; explore_budget = 5e4 };
        "competition (3 plans)",
        Strategy.Competitive { candidates = 3; explore_budget = 5e4 };
        "eddy (per-tuple routing)", Strategy.Eddying;
        "static", Strategy.Static ]
  in
  Report.table
    ~title:
      "Ablation: adaptive-technique classes on Q3A/uniform (corrective vs \
       redundant computation vs eddy routing vs none)"
    ~header:[ "strategy"; "time" ] rows

let histogram_ablation () =
  (* §4.5 integrated: histograms predict two-way joins the running plan
     is not executing, at per-tuple maintenance cost. *)
  let ds = Lazy.force uniform in
  let q = Workload.query q3a in
  let catalog = Workload.catalog ~with_cardinalities:false ds q in
  let sources () = Workload.sources ds q () in
  let rows =
    List.map
      (fun (label, use_histograms) ->
        let cfg = { corrective_config with use_histograms } in
        let o =
          Strategy.run ~label ~initial_plan:(pessimal_plan q3a uniform)
            (Strategy.Corrective cfg) q catalog ~sources
        in
        let phases =
          match o.Strategy.corrective_stats with
          | Some s -> s.Corrective.phases
          | None -> 1
        in
        let key = Bjson.slug ("histograms/" ^ label) in
        jcell (Bjson.time (key ^ "/time") o.Strategy.report.Report.time_s);
        jcell (Bjson.count (key ^ "/phases") phases);
        [ label; seconds o.Strategy.report.Report.time_s;
          string_of_int phases ])
      [ "monitoring only (Tukwila default)", false;
        "with incremental histograms (4.5)", true ]
  in
  Report.table
    ~title:
      "Ablation: histogram-assisted re-optimization (Q3A, poor initial plan)"
    ~header:[ "configuration"; "time"; "phases" ] rows

let memory_ablation () =
  (* Overflow handling in the complementary join pair (5). *)
  let ds = Lazy.force uniform in
  let li = ds.Tpch.lineitem and ord = ds.Tpch.orders in
  let rows =
    List.map
      (fun budget ->
        let ctx = Ctx.create () in
        let j =
          Comp_join.create ?memory_budget:budget ~regions:16 ctx
            ~variant:Comp_join.Naive
            ~left_schema:(Adp_relation.Relation.schema li)
            ~right_schema:(Adp_relation.Relation.schema ord)
            ~left_key:[ "lineitem.l_orderkey" ]
            ~right_key:[ "orders.o_orderkey" ]
        in
        let l_src = Source.create ~name:"l" li Source.Local in
        let o_src = Source.create ~name:"o" ord Source.Local in
        let consume src t =
          let side =
            if Source.name src = "l" then Comp_join.L else Comp_join.R
          in
          ignore (Comp_join.insert j side t)
        in
        ignore (Driver.run ctx ~sources:[ l_src; o_src ] ~consume ());
        ignore (Comp_join.finish j);
        let st = Comp_join.stats j in
        let key =
          Printf.sprintf "memory/%s"
            (match budget with
             | None -> "unbounded"
             | Some b -> string_of_int b)
        in
        jcell (Bjson.time (key ^ "/time") (Ctx.now ctx /. 1e6));
        jcell (Bjson.count (key ^ "/spilled-regions") st.Comp_join.spilled_regions);
        jcell (Bjson.count (key ^ "/spilled-tuples") st.Comp_join.spilled_tuples);
        jcell (Bjson.count (key ^ "/overflow-out") st.Comp_join.overflow_out);
        [ (match budget with
           | None -> "unbounded"
           | Some b -> Report.human_int b);
          seconds (Ctx.now ctx /. 1e6);
          string_of_int st.Comp_join.spilled_regions;
          Report.human_int st.Comp_join.spilled_tuples;
          Report.human_int st.Comp_join.overflow_out ])
      [ None; Some 100_000; Some 50_000; Some 10_000 ]
  in
  Report.table
    ~title:
      "Ablation: complementary-join memory budget (LINEITEM x ORDERS, \
       sorted): overflow partitioning cost"
    ~header:
      [ "budget (tuples)"; "time"; "regions spilled"; "tuples spilled";
        "overflow outputs" ]
    rows

let run () =
  json := [];
  poll_sweep ();
  histogram_ablation ();
  memory_ablation ();
  pq_sweep ();
  window_sweep ();
  reuse_ablation ();
  competition_vs_corrective ();
  Bjson.emit ~bench:"ablation" (List.rev !json)
