(* Server telemetry over time: sampling determinism, SLO transitions,
   and the zero-perturbation contract.

   The eight-query / two-kill acceptance workload runs three ways over
   the shared TPC-H dataset: bare, telemetered (recorder + SLOs), and
   telemetered again.  BENCH_timeseries.json then gates the properties
   the telemetry layer promises:

   - exactly one sample per dispatcher poll, with the sample count and
     series count stable across runs;
   - byte-identical exported JSONL across repeated serves of the same
     script (the recorder never reads anything non-deterministic);
   - a server view bit-identical to the bare serve's — sampling only
     reads, so telemetry cannot perturb the clock or the outcomes;
   - the declared SLOs actually transition: the queue-depth objective
     is violated while the submit burst outruns the pool and recovers
     once the queue drains. *)

open Bench_common
module Server = Adp_server.Server
module Script = Adp_server.Script
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Timeseries = Adp_obs.Timeseries
module Slo = Adp_obs.Slo
module Diagnostic = Adp_analysis.Diagnostic

let ckpt_root = "_bench_timeseries_ckpt"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let resolver = lazy (Server.tpch_resolver (Lazy.force uniform))

let parse text =
  match Script.parse text with
  | Ok s -> s
  | Error ds -> failwith (Diagnostic.to_string ds)

let serve ?(config = fun c -> c) text =
  if Sys.file_exists ckpt_root then rm_rf ckpt_root;
  Sys.mkdir ckpt_root 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ckpt_root then rm_rf ckpt_root)
    (fun () ->
      let cfg = config (Server.default_config ~checkpoint_dir:ckpt_root) in
      Server.run cfg (Lazy.force resolver) (parse text))

let acceptance_script =
  "at 0 submit q1 Q3\n\
   at 0 submit q2 Q10\n\
   at 0 submit q3 Q3A\n\
   at 0 submit q4 Q10A\n\
   at 0.001 kill q2 tuples:400\n\
   at 0.05 submit q5 Q5\n\
   at 0.05 submit q6 Q3\n\
   at 0.05 kill q6 tuples:700\n\
   at 0.3 submit q7 Q10\n\
   at 0.3 submit q8 Q3A"

let slo_of text =
  match Slo.parse text with
  | Ok o -> o
  | Error m -> failwith m

(* The queue-depth objective transitions within the workload (the burst
   outruns the three workers, then the queue drains); the polls bound
   never trips. *)
let slos () =
  [ slo_of "depth=adp_server_queue_depth last < 1";
    slo_of "polls=adp_server_polls_total last < 1000" ]

let run_telemetered () =
  let ts = Timeseries.create ~slos:(slos ()) () in
  let r =
    serve acceptance_script
      ~config:(fun c ->
        { c with
          Server.workers = 3; checkpoint_every = 300; telemetry = Some ts })
  in
  (r, ts)

let run () =
  Printf.printf
    "telemetry scenarios at scale %g: acceptance workload (8 queries, 2 \
     kills) bare vs telemetered, twice.\n"
    scale;
  let plain =
    serve acceptance_script
      ~config:(fun c -> { c with Server.workers = 3; checkpoint_every = 300 })
  in
  let r1, ts1 = run_telemetered () in
  let r2, ts2 = run_telemetered () in
  let jsonl1 = Timeseries.to_jsonl ts1 and jsonl2 = Timeseries.to_jsonl ts2 in
  let one_per_poll =
    Timeseries.samples ts1 = r1.Server.r_polls
    && Timeseries.samples ts2 = r2.Server.r_polls
  in
  let identical = String.equal jsonl1 jsonl2 in
  let unperturbed = Server.view plain = Server.view r1 in
  let doc =
    match Timeseries.of_jsonl jsonl1 with
    | Ok d -> d
    | Error m -> failwith m
  in
  let violations =
    List.length (List.filter (fun s -> s.Timeseries.sl_violated) doc.Timeseries.d_slo_log)
  and recoveries =
    List.length
      (List.filter (fun s -> not s.Timeseries.sl_violated) doc.Timeseries.d_slo_log)
  in
  (* Windowed aggregates over the recorded depth series: the p95 must
     dominate the last value once the queue has drained. *)
  let agg a = Timeseries.aggregate ts1 ~metric:"adp_server_queue_depth" a in
  let aggregates_ordered =
    match (agg Slo.Last, agg Slo.P95) with
    | Some last, Some p95 -> last <= p95
    | _ -> false
  in
  Printf.printf
    "telemetry: %d samples over %d polls (%s), %d series; JSONL %s across \
     serves; view %s the bare serve\n"
    (Timeseries.samples ts1) r1.Server.r_polls
    (if one_per_poll then "one per poll" else "MISALIGNED")
    (Timeseries.series_count ts1)
    (if identical then "byte-identical" else "DIVERGED")
    (if unperturbed then "identical to" else "DIVERGED from");
  Printf.printf "slo: %d violation(s), %d recovery(ies), %d span(s), %d \
                 provenance edge(s)\n"
    violations recoveries
    (List.length doc.Timeseries.d_spans)
    (List.length doc.Timeseries.d_provs);
  Adp_core.Report.table ~title:"Server telemetry over time"
    ~header:[ "property"; "value" ]
    [ [ "samples per poll"; (if one_per_poll then "1" else "misaligned") ];
      [ "JSONL determinism";
        (if identical then "byte-identical" else "diverged") ];
      [ "zero-perturbation"; (if unperturbed then "yes" else "NO") ];
      [ "slo transitions";
        Printf.sprintf "%d violated / %d recovered" violations recoveries ] ];
  Bjson.emit ~bench:"timeseries"
    ([ Bjson.flag "one-sample-per-poll" one_per_poll;
       Bjson.flag "jsonl-identical" identical;
       Bjson.flag "zero-perturbation" unperturbed;
       Bjson.flag "aggregates-ordered" aggregates_ordered;
       Bjson.count "samples" (Timeseries.samples ts1);
       Bjson.count "series" (Timeseries.series_count ts1);
       Bjson.count "spans" (List.length doc.Timeseries.d_spans);
       Bjson.count "provenance-edges" (List.length doc.Timeseries.d_provs);
       Bjson.count "slo-violations" violations;
       Bjson.count "slo-recoveries" recoveries;
       Bjson.time "acceptance-finished" r1.Server.r_finished_s ])
