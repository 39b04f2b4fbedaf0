(* Figure 2: static optimization, corrective query processing, and plan
   partitioning over uniform and skewed TPC data, with and without given
   cardinalities.  Local sources isolate computation cost, as in the
   paper's in-memory configuration. *)

open Adp_core
open Adp_query
open Bench_common

let run () =
  let header =
    "query-dataset"
    :: List.map (fun v -> v.label) figure2_variants
  in
  let json = ref [] in
  let rows =
    List.concat_map
      (fun qid ->
        List.map
          (fun (ds_name, ds) ->
            let cells =
              List.map
                (fun variant ->
                  let o = run_cqp ~variant ~query:qid ~dataset:(ds_name, ds) () in
                  json :=
                    Bjson.time
                      (Bjson.slug
                         (Printf.sprintf "%s/%s/%s" (Workload.name qid)
                            ds_name variant.label))
                      o.Strategy.report.Report.time_s
                    :: !json;
                  time_cell o)
                figure2_variants
            in
            Printf.sprintf "%s (%s)" (Workload.name qid) ds_name :: cells)
          datasets)
      queries
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Figure 2: strategies over TPC data (virtual completion time, SF %g)"
         scale)
    ~header rows;
  Bjson.emit ~bench:"figure2" (List.rev !json)
