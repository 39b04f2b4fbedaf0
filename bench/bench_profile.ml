(* Profiler overhead and zero-perturbation: the mis-costed corrective
   execution that drives Figure 2's switch (Q5 from the pessimal plan),
   run bare versus with the per-node profiler and the calibration ledger
   attached.

   Three claims are checked.  First, zero perturbation: profiled runs
   report bit-identical virtual clocks (time, cpu, idle) and the exact
   same result multiset as unprofiled ones — attribution adds the floats
   already being charged and the estimator never touches the clock.
   Second, the ledger captures the story: at least one recorded decision,
   a switch, and a blame node.  Third, the wall-clock price stays under
   25% on the minimum of three runs each — a looser budget than the pure
   tracing bench because the ledger re-runs the (clock-free, but not
   wall-free) cardinality estimator at every poll.  Results feed
   BENCH_profile.json. *)

open Adp_relation
open Adp_core
open Adp_query
open Bench_common
module Profile = Adp_obs.Profile
module Calibrate = Adp_obs.Calibrate

let qid = Workload.Q5
let repeats = 3

let run_one ?profile ?calibrate () =
  let ds = Lazy.force uniform in
  let q = Workload.query qid in
  let catalog = Workload.catalog ~with_cardinalities:false ds q in
  let initial_plan = pessimal_plan qid uniform in
  Strategy.run ~label:"profile" ~initial_plan ?profile
    (Strategy.Corrective { corrective_config with calibrate }) q catalog
    ~sources:(Workload.sources ~model:Adp_exec.Source.Local ds q)

let same_result a b =
  let sort r = List.sort Tuple.compare (Relation.to_list r) in
  List.equal (fun ta tb -> Tuple.compare ta tb = 0) (sort a) (sort b)

let run () =
  Printf.printf
    "%s, pessimal initial plan; %d bare vs %d profiled (span profiler + \
     calibration ledger) runs.\n"
    (Workload.name qid) repeats repeats;
  let plain = List.init repeats (fun _ -> run_one ()) in
  let last_cal = ref (Calibrate.create ()) in
  let profiled =
    List.init repeats (fun _ ->
        let profile = Profile.create () in
        let calibrate = Calibrate.create () in
        let o = run_one ~profile ~calibrate () in
        last_cal := calibrate;
        o)
  in
  let clock (o : Strategy.outcome) =
    let r = o.Strategy.report in
    (r.Report.time_s, r.Report.cpu_s, r.Report.idle_s)
  in
  let reference = clock (List.hd plain) in
  let time_identical =
    List.for_all (fun o -> clock o = reference) (plain @ profiled)
  in
  let result_identical =
    List.for_all
      (fun o ->
        same_result o.Strategy.result (List.hd plain).Strategy.result)
      profiled
  in
  let min_wall os =
    List.fold_left
      (fun acc (o : Strategy.outcome) ->
        Float.min acc o.Strategy.report.Report.wall_s)
      infinity os
  in
  let wall_plain = min_wall plain and wall_profiled = min_wall profiled in
  let overhead =
    if wall_plain > 0.0 then (wall_profiled -. wall_plain) /. wall_plain
    else 0.0
  in
  let decisions = Calibrate.decisions !last_cal in
  let switches =
    List.length
      (List.filter
         (fun d -> d.Calibrate.d_verdict = Calibrate.Switched)
         decisions)
  in
  let blame_found = Calibrate.worst !last_cal <> None in
  let time_s, _, _ = reference in
  Report.table ~title:"Profiler overhead (min of runs)"
    ~header:
      [ "variant"; "virtual time"; "wall clock"; "identical clock";
        "identical result" ]
    [ [ "bare"; seconds time_s; seconds wall_plain; "-"; "-" ];
      [ "profiled"; seconds time_s; seconds wall_profiled;
        string_of_bool time_identical; string_of_bool result_identical ] ];
  Printf.printf
    "wall overhead %+.1f%% (budget 25%%); %d decisions, %d switch(es), \
     blame %s\n"
    (100.0 *. overhead) (List.length decisions) switches
    (match Calibrate.worst !last_cal with
     | Some (node, q) -> Printf.sprintf "%s (q-error %.2f)" node q
     | None -> "none");
  Bjson.emit ~bench:"profile"
    [ Bjson.time "time" time_s;
      Bjson.flag "time-identical" time_identical;
      Bjson.flag "result-identical" result_identical;
      Bjson.count "decisions" (List.length decisions);
      Bjson.count "switches" switches;
      Bjson.flag "blame-found" blame_found;
      (* The one wall-derived gate left in bench/; it waits on a
         perfbench trace.overhead bound. *)
      Bjson.flag "overhead-ok" (overhead < 0.25) ]
