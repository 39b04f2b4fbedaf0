(* Observability overhead: the same mis-costed corrective execution with
   tracing + metrics fully enabled versus with both disabled.

   Two claims are checked.  First, the zero-perturbation invariant: the
   virtual clock totals (time, cpu, idle) of every traced run are
   bit-identical to the untraced ones — tracing reads the clock but never
   charges it.  Second, the wall-clock price of a JSONL file sink plus the
   metrics registry stays under 5% on the minimum of three runs each.
   Results feed BENCH_trace.json. *)

open Adp_core
open Adp_query
open Bench_common
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics

let qid = Workload.Q3A
let trace_path = "_bench_trace.jsonl"
let repeats = 3

let run_one ?trace ?metrics () =
  let ds = Lazy.force uniform in
  let q = Workload.query qid in
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  let initial_plan = pessimal_plan qid uniform in
  let o =
    Strategy.run ~label:"trace" ~initial_plan ?trace ?metrics
      (Strategy.Corrective corrective_config) q catalog
      ~sources:(Workload.sources ~model:Adp_exec.Source.Local ds q)
  in
  o.Strategy.report

let run () =
  Printf.printf
    "%s, pessimal initial plan; %d untraced vs %d traced (JSONL sink + \
     metrics registry) runs.\n"
    (Workload.name qid) repeats repeats;
  let plain = List.init repeats (fun _ -> run_one ()) in
  let events = ref 0 in
  let traced =
    List.init repeats (fun _ ->
        let trace = Trace.file ~format:Trace.Jsonl trace_path in
        let metrics = Metrics.create () in
        let r = run_one ~trace ~metrics () in
        Trace.close trace;
        (match Trace.read_jsonl trace_path with
         | Ok evs -> events := List.length evs
         | Error e -> failwith e);
        Sys.remove trace_path;
        r)
  in
  let clock (r : Report.run) =
    (r.Report.time_s, r.Report.cpu_s, r.Report.idle_s)
  in
  let reference = clock (List.hd plain) in
  let time_identical =
    List.for_all (fun r -> clock r = reference) (plain @ traced)
  in
  let min_wall rs =
    List.fold_left
      (fun acc (r : Report.run) -> Float.min acc r.Report.wall_s)
      infinity rs
  in
  let wall_plain = min_wall plain and wall_traced = min_wall traced in
  let overhead =
    if wall_plain > 0.0 then (wall_traced -. wall_plain) /. wall_plain
    else 0.0
  in
  let time_s, _, _ = reference in
  Report.table ~title:"Tracing overhead (min of runs)"
    ~header:
      [ "variant"; "virtual time"; "wall clock"; "events"; "identical clock" ]
    [ [ "untraced"; seconds time_s; seconds wall_plain; "0"; "-" ];
      [ "traced"; seconds time_s; seconds wall_traced;
        string_of_int !events; string_of_bool time_identical ] ];
  Printf.printf
    "wall overhead %+.1f%% (budget 5%%); virtual clocks %s across all %d \
     runs\n"
    (100.0 *. overhead)
    (if time_identical then "identical" else "DIVERGED")
    (2 * repeats);
  Bjson.emit ~bench:"trace"
    [ Bjson.count "events" !events; Bjson.time "time" time_s;
      Bjson.flag "time-identical" time_identical;
      (* The one wall-derived gate left in bench/; it waits on a
         perfbench trace.overhead bound. *)
      Bjson.flag "overhead-ok" (overhead < 0.05) ]
