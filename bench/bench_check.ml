(* Static-analyzer overhead: the full pre-execution work-up (query check,
   plan schema/type check, ADP conformance, symbolic stitch-up coverage)
   over every bundled workload, in wall-clock microseconds per call
   (printed only; BENCH_check.json keeps the diagnostic counts).  The
   point of the measurement: verification is charged once per plan
   boundary, so it must be negligible next to even the smallest run. *)

open Adp_optimizer
open Adp_analysis
open Adp_query

let time_us f =
  (* Median of repeated batches to shed scheduler noise; timed through
     the sanctioned wall module, so no lint waiver is needed. *)
  let batch () =
    let n = 50 in
    let t0 = Adp_obs.Wallclock.cpu_now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Adp_obs.Wallclock.cpu_now () -. t0) *. 1e6 /. float_of_int n
  in
  let samples = List.sort compare (List.init 7 (fun _ -> batch ())) in
  List.nth samples 3

let run () =
  print_endline "";
  print_endline "Static analyzer overhead (full check_workload per call)";
  print_endline "workload    phases  diagnostics  us/call";
  let ds = Lazy.force Bench_common.uniform in
  let json = ref [] in
  List.iter
    (fun wq ->
      let q = Workload.query wq in
      let catalog = Workload.catalog ~with_cardinalities:true ds q in
      let lookup r =
        try Some (Catalog.schema_of catalog r) with Not_found -> None
      in
      let sels = Adp_stats.Selectivity.create () in
      let plan = (Optimizer.optimize ~preagg:Optimizer.Auto q catalog sels).spec in
      List.iter
        (fun phases ->
          let check () = Analyzer.check_workload ~phases ~lookup q [ plan ] in
          let diags = check () in
          let us = time_us check in
          let key =
            Printf.sprintf "%s/phases-%d"
              (Bench_common.Bjson.slug (Workload.name wq))
              phases
          in
          json :=
            Bench_common.Bjson.count (key ^ "/diagnostics") (List.length diags)
            :: !json;
          Printf.printf "%-11s %6d %12d %8.1f\n%!" (Workload.name wq) phases
            (List.length diags) us)
        [ 2; 4; 8 ])
    Workload.evaluated;
  Bench_common.Bjson.emit ~bench:"check" (List.rev !json)
