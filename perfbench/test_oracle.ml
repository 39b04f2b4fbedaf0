(* The benchmark's answer oracle must agree with [Strategy.reference],
   the engine's independent nested-loop evaluator, on every query the
   workloads submit, on uniform and skewed data.  Silent on success. *)

open Adp_datagen
open Adp_core
open Adp_query

let () =
  List.iter
    (fun distribution ->
      let ds = Tpch.generate { Tpch.scale = 0.002; distribution; seed = 7 } in
      List.iter
        (fun spec ->
          let q = Workload.query spec in
          let sources = Workload.sources ds q in
          let want =
            Strategy.reference q (Workload.catalog ds q) ~sources
          in
          if not (Oracle.same_bag (Oracle.answer q ~sources) want) then begin
            Printf.eprintf "oracle disagrees with Strategy.reference on %s\n"
              (Workload.name spec);
            exit 1
          end)
        [ Workload.Q3; Workload.Q3A; Workload.Q5; Workload.Q10; Workload.Q10A ])
    [ Tpch.Uniform; Tpch.Skewed 0.5 ]
