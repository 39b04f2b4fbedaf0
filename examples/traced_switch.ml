(* Watching the re-optimizer change its mind.  A mis-costed Q3A starts on
   the costliest candidate plan (the plan a badly mis-estimating optimizer
   would pick).  With a trace attached, every poll records the cost-to-go,
   the re-optimized alternative, the stitch-up price, and the selectivity
   evidence the monitor collected — and the moment the evidence justifies
   it, a plan_switch event marks the Figure 2 correction.

   The recorded timeline is replayed to stdout, and the raw trace is also
   written to traced_switch.jsonl: `tukwila explain traced_switch.jsonl`
   renders the same replay.

     dune exec examples/traced_switch.exe *)

open Adp_datagen
open Adp_optimizer
open Adp_core
open Adp_query
module Trace = Adp_obs.Trace

let () =
  let ds =
    Tpch.generate { Tpch.scale = 0.01; distribution = Tpch.Uniform; seed = 3 }
  in
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  let sources () = Workload.sources ds q () in
  (* The mis-cost: start from the worst cross-product-free plan. *)
  let sels = Adp_stats.Selectivity.create () in
  let bad = (Optimizer.pessimal q catalog sels).Optimizer.spec in
  let cfg =
    { Corrective.default_config with
      poll_interval = 5e3; switch_threshold = 0.95; min_leaf_seen = 100 }
  in
  let trace = Trace.memory () in
  let o =
    Strategy.run ~preagg:Optimizer.Auto ~label:"traced" ~initial_plan:bad
      ~trace (Strategy.Corrective cfg) q catalog ~sources
  in
  Printf.printf
    "Q3A from the pessimal plan: %d phases, %d result rows, %.3f virtual s\n\n"
    o.Strategy.report.Report.phases o.Strategy.report.Report.result_card
    o.Strategy.report.Report.time_s;
  let events = Trace.events trace in
  Format.printf "%a" Trace.explain events;
  (* The same trace as a replayable artifact. *)
  let sink = Trace.file "traced_switch.jsonl" in
  List.iter (fun (at, ev) -> Trace.emit sink ~at ev) events;
  Trace.close sink;
  print_newline ();
  print_endline
    "wrote traced_switch.jsonl — replay it with: tukwila explain \
     traced_switch.jsonl";
  (* The whole point of the trace: the switch is on the record. *)
  assert (
    List.exists (function _, Trace.Plan_switch _ -> true | _ -> false) events)
