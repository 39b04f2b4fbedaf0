(* Table 1: breakdown of corrective query processing on local data —
   number of phases, stitch-up time, tuples reused from prior phases, and
   registered tuples not reused. *)

open Adp_core
open Adp_query
open Bench_common

let breakdown ?(model = Adp_exec.Source.Local) ~bench ~title () =
  let variants =
    [ "No statistics",
      { label = "Adaptive - No Statistics";
        strategy = Strategy.Corrective corrective_config; with_cards = false };
      "Given cardinalities",
      { label = "Adaptive - Cardinalities";
        strategy = Strategy.Corrective corrective_config; with_cards = true } ]
  in
  let header =
    "statistics" :: "metric"
    :: List.concat_map
         (fun qid ->
           List.map
             (fun (ds, _) -> Workload.name qid ^ " " ^ ds)
             datasets)
         queries
  in
  let json = ref [] in
  let rows =
    List.concat_map
      (fun (stats_label, variant) ->
        let outcomes =
          List.concat_map
            (fun qid ->
              List.map
                (fun dataset ->
                  let ds_name = fst dataset in
                  ( Printf.sprintf "%s/%s/%s" (Workload.name qid) ds_name
                      stats_label,
                    run_cqp ~model ~variant ~query:qid ~dataset () ))
                datasets)
            queries
        in
        let metric name f =
          stats_label :: name :: List.map (fun (_, o) -> f o) outcomes
        in
        let cqp (o : Strategy.outcome) =
          match o.Strategy.corrective_stats with
          | Some s -> s
          | None -> failwith "corrective stats missing"
        in
        List.iter
          (fun (key, o) ->
            let s = cqp o in
            let cell kind metric v = kind (Bjson.slug (key ^ "/" ^ metric)) v in
            json :=
              cell Bjson.count "discarded" s.Corrective.stitch.Stitchup.discarded
              :: cell Bjson.count "reused" s.Corrective.stitch.Stitchup.reused
              :: cell Bjson.time "stitch-time"
                   (s.Corrective.stitch.Stitchup.time /. 1e6)
              :: cell Bjson.count "phases" s.Corrective.phases
              :: !json)
          outcomes;
        [ metric "Phases" (fun o -> string_of_int (cqp o).Corrective.phases);
          metric "Stitch-up time" (fun o ->
              seconds ((cqp o).Corrective.stitch.Stitchup.time /. 1e6));
          metric "Reused tuples" (fun o ->
              Report.human_int (cqp o).Corrective.stitch.Stitchup.reused);
          metric "Discarded tuples" (fun o ->
              Report.human_int (cqp o).Corrective.stitch.Stitchup.discarded) ])
      variants
  in
  Report.table ~title ~header rows;
  Bjson.emit ~bench (List.rev !json)

let run () =
  breakdown ~bench:"table1"
    ~title:
      "Table 1: corrective query processing breakdown (local data): phases, \
       stitch-up time, reuse"
    ()
