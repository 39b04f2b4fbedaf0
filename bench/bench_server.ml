(* Multi-query server: supervision, adaptive polling, warm starts.

   Three serve scenarios over the shared TPC-H dataset, each a
   discrete-event run on the server's virtual clock, feed
   BENCH_server.json:

   - a six-query burst through a single worker followed by an idle gap,
     checking the dispatcher's poll interval walks down to its
     configured floor under load and back up to its ceiling when idle;
   - a deterministic mid-run worker kill on the non-aggregating SPJ
     query, checking the reclaimed query resumes from its checkpoint to
     the bit-identical row multiset of an uninterrupted run — plus the
     eight-query / two-kill acceptance workload, run once bare and once
     fully observed (memory trace sink + metrics registry) to check the
     zero-perturbation contract extends to the whole serve run;
   - two identical Q5 submissions in sequence, checking the second
     inherits selectivity signatures from the shared store, replans, and
     finishes faster in virtual time with the same answer. *)

open Adp_relation
open Adp_core
open Bench_common
module Server = Adp_server.Server
module Script = Adp_server.Script
module Poll = Adp_server.Poll_controller
module Crash = Adp_recovery.Crash
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Diagnostic = Adp_analysis.Diagnostic
module Corrective = Adp_core.Corrective

let ckpt_root = "_bench_server_ckpt"

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

let result_of report qid =
  match
    List.find_opt (fun q -> q.Server.qr_id = qid) report.Server.r_queries
  with
  | Some { Server.qr_outcome = Server.Done { result; stats }; _ } ->
      (result, stats)
  | _ -> failwith (qid ^ " did not finish")

(* The uninterrupted single-query oracle: the same corrective template a
   worker uses, no checkpointing, no kill, empty statistics seed. *)
let oracle spec =
  let r = (Lazy.force resolver) spec in
  let cfg =
    (Server.default_config ~checkpoint_dir:"unused").Server.corrective
  in
  let result, _ =
    Corrective.run ~config:cfg r.Server.r_query r.Server.r_catalog
      (r.Server.r_sources ())
  in
  result

(* ---------------- dispatcher adaptation ---------------- *)

let poll_knobs =
  { Poll.min_interval = 1e3; max_interval = 2e4; backoff = 1.5;
    speedup = 0.7; window = 8 }

let burst_script =
  "at 0 submit a Q3\n\
   at 0 submit b Q3A\n\
   at 0 submit c Q10\n\
   at 0 submit d Q10A\n\
   at 0 submit e Q5\n\
   at 0 submit f Q3\n\
   at 2 submit g Q3"

let run_burst () =
  let r =
    serve burst_script
      ~config:(fun c -> { c with Server.workers = 1; poll = poll_knobs })
  in
  let floor_hit =
    Float.abs (r.Server.r_min_interval_s -. (poll_knobs.Poll.min_interval /. 1e6))
    < 1e-12
  and ceiling_hit =
    Float.abs (r.Server.r_max_interval_s -. (poll_knobs.Poll.max_interval /. 1e6))
    < 1e-12
  in
  Printf.printf
    "burst: %d done, %d polls (%d busy), interval %.4fs..%.4fs (floor %s, \
     ceiling %s)\n"
    r.Server.r_done r.Server.r_polls r.Server.r_busy_polls
    r.Server.r_min_interval_s r.Server.r_max_interval_s
    (if floor_hit then "hit" else "MISSED")
    (if ceiling_hit then "recovered" else "MISSED");
  (r, floor_hit, ceiling_hit)

(* ---------------- supervision & recovery ---------------- *)

let spj_spec =
  "SELECT orders.o_orderkey, lineitem.l_quantity FROM orders, lineitem \
   WHERE orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderdate < \
   DATE '1995-03-15'"

let run_kill () =
  let script =
    Printf.sprintf "at 0 submit q %s\nat 0.001 kill q tuples:2000" spj_spec
  in
  let r =
    serve script ~config:(fun c -> { c with Server.checkpoint_every = 500 })
  in
  let result, stats = result_of r "q" in
  let identical = Relation.equal_bag (oracle spj_spec) result in
  Printf.printf
    "kill-resume: %d reclaim(s), %d attempts, %d resumed phase(s), rows %s \
     the uninterrupted run\n"
    r.Server.r_reclaims
    (List.hd r.Server.r_queries).Server.qr_attempts
    stats.Corrective.resumed_phases
    (if identical then "bit-identical to" else "DIVERGED from");
  (r, identical)

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

let run_acceptance ~observed =
  let trace = if observed then Trace.memory () else Trace.null in
  let metrics = if observed then Some (Metrics.create ()) else None in
  serve acceptance_script
    ~config:(fun c ->
      { c with Server.workers = 3; checkpoint_every = 300; trace; metrics })

(* ---------------- cross-query warm start ---------------- *)

let run_warm () =
  let r = serve "at 0 submit a Q5\nat 2 submit b Q5" in
  let _, cold = result_of r "a" in
  let _, warm = result_of r "b" in
  let b =
    List.find (fun q -> q.Server.qr_id = "b") r.Server.r_queries
  in
  let cold_s = cold.Corrective.total_time /. 1e6
  and warm_s = warm.Corrective.total_time /. 1e6 in
  Printf.printf
    "warm start: %d inherited signature(s), plan %s, %s -> %s virtual\n"
    b.Server.qr_warm_signatures
    (if b.Server.qr_warm_plan_changed then "changed" else "unchanged")
    (seconds cold_s) (seconds warm_s);
  (r, b, cold_s, warm_s)

let run () =
  Printf.printf
    "serve scenarios at scale %g: burst (1 worker), kill-resume + \
     acceptance (8 queries, 2 kills), warm start (Q5 twice).\n"
    scale;
  let burst, floor_hit, ceiling_hit = run_burst () in
  let kill, kill_identical = run_kill () in
  let plain = run_acceptance ~observed:false in
  let observed = run_acceptance ~observed:true in
  let unperturbed = Server.view plain = Server.view observed in
  Printf.printf
    "acceptance: %d done, %d worker death(s), %d reclaim(s), %d spawned; \
     observed view %s the bare one\n"
    plain.Server.r_done plain.Server.r_workers_died plain.Server.r_reclaims
    plain.Server.r_workers_spawned
    (if unperturbed then "identical to" else "DIVERGED from");
  let warm_r, warm_b, cold_s, warm_s = run_warm () in
  Report.table ~title:"Multi-query server"
    ~header:[ "scenario"; "done"; "reclaims"; "signal" ]
    [ [ "burst"; string_of_int burst.Server.r_done; "0";
        Printf.sprintf "interval %.4fs..%.4fs" burst.Server.r_min_interval_s
          burst.Server.r_max_interval_s ];
      [ "kill-resume"; string_of_int kill.Server.r_done;
        string_of_int kill.Server.r_reclaims;
        (if kill_identical then "bit-identical" else "diverged") ];
      [ "acceptance"; string_of_int plain.Server.r_done;
        string_of_int plain.Server.r_reclaims;
        (if unperturbed then "zero-perturbation" else "perturbed") ];
      [ "warm"; string_of_int warm_r.Server.r_done; "0";
        Printf.sprintf "%d sigs, %s -> %s" warm_b.Server.qr_warm_signatures
          (seconds cold_s) (seconds warm_s) ] ];
  Bjson.emit ~bench:"server"
    ([ Bjson.flag "poll-hits-floor" floor_hit;
      Bjson.flag "poll-recovers-ceiling" ceiling_hit;
      Bjson.count "burst-polls" burst.Server.r_polls;
      Bjson.count "burst-busy-polls" burst.Server.r_busy_polls;
      Bjson.time "burst-finished" burst.Server.r_finished_s;
      Bjson.flag "kill-resume-bit-identical" kill_identical;
      Bjson.count "kill-reclaims" kill.Server.r_reclaims;
      Bjson.count "acceptance-done" plain.Server.r_done;
      Bjson.count "acceptance-deaths" plain.Server.r_workers_died;
      Bjson.count "acceptance-reclaims" plain.Server.r_reclaims;
      Bjson.count "acceptance-spawned" plain.Server.r_workers_spawned;
      Bjson.time "acceptance-finished" plain.Server.r_finished_s;
      Bjson.flag "zero-perturbation" unperturbed;
      Bjson.count "warm-signatures" warm_b.Server.qr_warm_signatures;
      Bjson.flag "warm-plan-changed" warm_b.Server.qr_warm_plan_changed;
      Bjson.flag "warm-faster" (warm_s < cold_s);
      Bjson.time "warm-cold-time" cold_s; Bjson.time "warm-time" warm_s;
      Bjson.count "shared-signatures" warm_r.Server.r_shared_signatures ])
