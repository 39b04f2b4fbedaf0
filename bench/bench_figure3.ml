(* Figure 3: corrective query processing over a bursty, bandwidth-limited
   (802.11b-style) network.  Adaptive scheduling overlaps computation with
   arrival gaps; the completion time is dominated by the slowest stream
   unless the plan wastes CPU. *)

open Adp_query
open Bench_common

let variants =
  List.filter
    (fun v -> not (String.length v.label >= 4 && String.sub v.label 0 4 = "Plan"))
    figure2_variants

let run () =
  let header = "query-dataset" :: List.map (fun v -> v.label) variants in
  let json = ref [] in
  let rows =
    List.concat_map
      (fun qid ->
        List.map
          (fun (ds_name, ds) ->
            let cells =
              List.map
                (fun variant ->
                  let o =
                    run_cqp ~model:wireless ~variant ~query:qid
                      ~dataset:(ds_name, ds) ()
                  in
                  json :=
                    Bjson.time
                      (Bjson.slug
                         (Printf.sprintf "%s/%s/%s" (Workload.name qid)
                            ds_name variant.label))
                      o.Adp_core.Strategy.report.Adp_core.Report.time_s
                    :: !json;
                  time_cell o)
                variants
            in
            Printf.sprintf "%s (%s)" (Workload.name qid) ds_name :: cells)
          datasets)
      queries
  in
  Adp_core.Report.table
    ~title:
      "Figure 3: corrective query processing over a bursty wireless network \
       (virtual completion time)"
    ~header rows;
  Bjson.emit ~bench:"figure3" (List.rev !json)
