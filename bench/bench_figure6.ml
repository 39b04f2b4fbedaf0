(* Figure 6: single final aggregation vs adjustable-window pre-aggregation
   vs traditional (blocking) pre-aggregation, on the TPC queries (§6).

   Sources are bandwidth-limited so that the pipelining benefit of the
   adjustable-window operator is visible: a blocking pre-aggregation defers
   all downstream join and aggregation work until its input is exhausted,
   which serializes it after the stream instead of overlapping with it. *)

open Adp_exec
open Adp_core
open Adp_optimizer
open Adp_query
open Bench_common

let stream_model = Source.Bandwidth 600_000.0

let strategies qid =
  [ "Single Aggregation", Some Optimizer.No_preagg;
    "Adjustable-Window Pre-Aggregation",
    Some (Optimizer.Force (Adp_exec.Plan.Windowed { initial = 64; max_window = 65536 }));
    ( "Traditional Pre-Aggregation",
      (* The paper applies traditional pre-aggregation only where it was
         beneficial, omitting Q5. *)
      if qid = Workload.Q5 then None
      else Some (Optimizer.Force Adp_exec.Plan.Traditional) ) ]

let run_one preagg qid ds =
  let ds = Lazy.force ds in
  let q = Workload.query qid in
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  let sources () = Workload.sources ~model:stream_model ds q () in
  let o = Strategy.run ~preagg ~label:"fig6" Strategy.Static q catalog ~sources in
  o.Strategy.report.Report.time_s

let run () =
  let names = List.map fst (strategies Workload.Q3A) in
  let json = ref [] in
  let rows =
    List.concat_map
      (fun qid ->
        List.map
          (fun (ds_name, ds) ->
            let cells =
              List.map
                (fun (sname, preagg) ->
                  match preagg with
                  | None -> "-"
                  | Some preagg ->
                    let t = run_one preagg qid ds in
                    json :=
                      Bjson.time
                        (Bjson.slug
                           (Printf.sprintf "%s/%s/%s" (Workload.name qid)
                              ds_name sname))
                        t
                      :: !json;
                    seconds t)
                (strategies qid)
            in
            Printf.sprintf "%s (%s)" (Workload.name qid) ds_name :: cells)
          datasets)
      queries
  in
  Report.table
    ~title:
      "Figure 6: pre-aggregation strategies on streamed TPC queries \
       (virtual completion time)"
    ~header:("query-dataset" :: names) rows;
  Bjson.emit ~bench:"figure6" (List.rev !json)
