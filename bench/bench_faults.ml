(* Fault-tolerance sweep: how completion time and coverage respond to
   where a source dies (disconnect point) and how hard the engine tries
   to get it back (retry budget).

   The lineitem stream disconnects after a fraction of its tuples and
   rejoins 0.2 s later.  With a 50 ms timeout and 25 ms doubling backoff,
   a budget of 4 attempts spans the outage — the engine reconnects to the
   same stream and needs no mirror.  Smaller budgets declare the
   connection dead first: with a
   lagging mirror the engine fails over and still answers in full (the
   re-streamed overlap is skipped by position), and with no mirror it
   degrades to a partial result whose coverage shrinks the earlier the
   stream dies. *)

open Adp_exec
open Adp_core
open Adp_query
open Bench_common

let qid = Workload.Q10A
let budgets = [ 0; 2; 4 ]
let drop_fractions = [ 0.25; 0.50; 0.75 ]
let rejoin_s = 0.2

let policy budget =
  { Retry.default_policy with
    Retry.timeout_s = 0.05; max_retries = budget;
    backoff_initial_s = 0.025; jitter = 0.0 }

let lineitem_of srcs = List.find (fun s -> Source.name s = "lineitem") srcs

let lineitem_card =
  lazy
    (let ds = Lazy.force uniform in
     let q = Workload.query qid in
     Source.cardinality
       (lineitem_of (Workload.sources ~model:Source.Local ds q ())))

let run_one ~drop_at ~budget ~mirrored =
  let ds = Lazy.force uniform in
  let q = Workload.query qid in
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  let sources () =
    let srcs = Workload.sources ~model:wireless ds q () in
    let li = lineitem_of srcs in
    Source.inject li
      (Source.Disconnect
         { after_tuples = drop_at; rejoin_after_s = Some rejoin_s });
    if mirrored then
      Source.add_mirror li (Source.mirror ~lag_tuples:(drop_at / 4) ());
    srcs
  in
  Strategy.run ~label:"faults" ~retry:(policy budget)
    (Strategy.Corrective corrective_config) q catalog ~sources

let cell (o : Strategy.outcome) =
  let r = o.Strategy.report in
  Printf.sprintf "%s %s (%dr/%df)" (seconds r.Report.time_s)
    (Report.percent r.Report.coverage)
    r.Report.retries r.Report.failovers

(* Raw cells accumulated for the BENCH_faults.json companion file. *)
let json_cells = ref []

let record ~mirrored ~frac ~budget (o : Strategy.outcome) =
  let r = o.Strategy.report in
  let key =
    Printf.sprintf "%s/drop%.0f%%/budget%d"
      (if mirrored then "mirrored" else "bare")
      (100.0 *. frac) budget
  in
  json_cells :=
    Bjson.count (key ^ "/result-card") r.Report.result_card
    :: Bjson.count (key ^ "/failovers") r.Report.failovers
    :: Bjson.count (key ^ "/retries") r.Report.retries
    :: Bjson.num (key ^ "/coverage") r.Report.coverage
    :: Bjson.time (key ^ "/time") r.Report.time_s
    :: !json_cells;
  o

let sweep ~mirrored ~title =
  let card = Lazy.force lineitem_card in
  let header =
    "disconnect point"
    :: List.map (fun b -> Printf.sprintf "budget %d" b) budgets
  in
  let rows =
    List.map
      (fun frac ->
        let drop_at = int_of_float (frac *. float_of_int card) in
        Printf.sprintf "%.0f%% of lineitem" (100.0 *. frac)
        :: List.map
             (fun budget ->
               cell
                 (record ~mirrored ~frac ~budget
                    (run_one ~drop_at ~budget ~mirrored)))
          budgets
      )
      drop_fractions
  in
  Report.table ~title ~header rows

let run () =
  Printf.printf
    "Q10A (%s); lineitem drops its connection and rejoins %.1fs later.\n\
     Cells: completion time, input coverage, (retries/failovers).\n"
    (Workload.name qid) rejoin_s;
  sweep ~mirrored:true
    ~title:
      "Fault sweep with a lagging mirror: small retry budgets fail over \
       and still answer in full";
  sweep ~mirrored:false
    ~title:
      "Fault sweep with no mirror: exhausted budgets degrade to partial \
       results";
  Bjson.emit ~bench:"faults" (List.rev !json_cells)
