(* Multi-query server: the script parser's grammar and diagnostics, the
   adaptive poll controller's qcheck properties, worker kill-and-resume
   at the server level (every crash point yields the uninterrupted run's
   result multiset), admission control / cancel / drain / retry budgets,
   cross-query warm starts through the shared selectivity store, the
   server-level zero-perturbation contract, and the report JSON
   round-trip. *)

open Adp_relation
open Adp_datagen
open Helpers
module Corrective = Adp_core.Corrective
module Crash = Adp_recovery.Crash
module Diagnostic = Adp_analysis.Diagnostic
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Profile = Adp_obs.Profile
module Json = Adp_obs.Json
module Poll = Adp_server.Poll_controller
module Script = Adp_server.Script
module Server = Adp_server.Server

(* ---------------- script parser ---------------- *)

let test_script_grammar () =
  let text =
    "# a comment line\n\
     at 0.5 submit q1 Q3\n\
     \n\
     at 0 submit q2 SELECT * FROM x # trailing comment\n\
     at 1.25 kill q1 tuples:400\n\
     at 2 kill q2 phase:1\n\
     at 2 kill q2 stitchup\n\
     at 3 cancel q2\n\
     at 9.5 drain\n"
  in
  match Script.parse text with
  | Error ds -> Alcotest.failf "parse failed: %s" (Diagnostic.to_string ds)
  | Ok s ->
    Alcotest.(check int) "directive count" 7 (List.length s);
    (* Sorted by time, stable within equal times. *)
    Alcotest.(check bool) "sorted by time" true
      (List.for_all2
         (fun (a, _) (b, _) -> a <= b)
         (List.filteri (fun i _ -> i < List.length s - 1) s)
         (List.tl s));
    (match s with
     | (0.0, Script.Submit { qid = "q2"; spec; _ }) :: _ ->
       Alcotest.(check string) "spec is the rest of the line, comment cut"
         "SELECT * FROM x" spec
     | _ -> Alcotest.fail "q2 should sort first");
    (match List.filter (function _, Script.Kill _ -> true | _ -> false) s with
     | [ (_, Script.Kill { point = Crash.After_tuples 400; _ });
         (_, Script.Kill { point = Crash.At_phase_boundary 1; _ });
         (_, Script.Kill { point = Crash.During_stitchup; _ }) ] -> ()
     | _ -> Alcotest.fail "kill points did not parse")

let code_of (d : Diagnostic.t) = d.Diagnostic.code

let test_script_diagnostics () =
  let expect_codes text codes =
    match Script.parse text with
    | Ok _ -> Alcotest.failf "accepted: %s" text
    | Error ds ->
      Alcotest.(check (list string)) text codes (List.map code_of ds)
  in
  expect_codes "submit q1 Q3" [ "script-syntax" ];
  expect_codes "at x submit q1 Q3" [ "script-bad-time" ];
  expect_codes "at -1 submit q1 Q3" [ "script-bad-time" ];
  expect_codes "at 0 submit q%1 Q3" [ "script-bad-qid" ];
  expect_codes "at 0 submit q1 Q3\nat 1 submit q1 Q3"
    [ "script-duplicate-qid" ];
  expect_codes "at 0 submit q1 Q3\nat 1 kill q1 tuples:0"
    [ "script-bad-point" ];
  expect_codes "at 0 submit q1 Q3\nat 1 kill q2 tuples:5"
    [ "script-unknown-qid" ];
  expect_codes "at 0 frobnicate q1" [ "script-syntax" ];
  expect_codes "at 0 submit q1" [ "script-syntax" ];
  (* Every problem is reported at once, in line order. *)
  expect_codes "at 0 submit q!1 Q3\nat y drain\nat 2 cancel ghost"
    [ "script-bad-qid"; "script-bad-time"; "script-unknown-qid" ];
  match Script.parse_file "/nonexistent/workload.txt" with
  | Error [ d ] -> Alcotest.(check string) "io code" "script-io-error" (code_of d)
  | _ -> Alcotest.fail "missing file accepted"

(* ---------------- poll controller properties ---------------- *)

let poll_cfg =
  { Poll.min_interval = 1e3; max_interval = 1e5; backoff = 1.7;
    speedup = 0.6; window = 5 }

let gen_founds = QCheck2.Gen.(list_size (int_range 1 60) (int_bound 3))

let prop_interval_in_bounds =
  QCheck2.Test.make ~name:"poll interval stays within [min, max] (qcheck)"
    ~count:300 gen_founds (fun founds ->
      let t = Poll.create poll_cfg in
      List.for_all
        (fun found ->
          let i = Poll.record t ~found in
          i >= poll_cfg.Poll.min_interval && i <= poll_cfg.Poll.max_interval)
        founds)

let prop_empty_polls_monotone =
  (* Once polls come up empty, the interval never shrinks again: each
     empty poll multiplies by backoff >= 1, capped at max. *)
  QCheck2.Test.make ~name:"empty polls back off monotonically (qcheck)"
    ~count:300 gen_founds (fun founds ->
      let t = Poll.create poll_cfg in
      List.iter (fun found -> ignore (Poll.record t ~found)) founds;
      let rec drain last n ok =
        if n = 0 then ok
        else
          let i = Poll.record t ~found:0 in
          drain i (n - 1) (ok && i >= last)
      in
      drain (Poll.interval t) 20 true)

let prop_speedup_bounded_by_window =
  (* A busy poll shrinks by at most the full speedup factor — the
     sliding window damps it to speedup^(busy/window) — and never
     stretches. *)
  QCheck2.Test.make ~name:"busy speedup bounded by the window (qcheck)"
    ~count:300 gen_founds (fun founds ->
      let t = Poll.create poll_cfg in
      List.for_all
        (fun found ->
          let before = Poll.interval t in
          let after = Poll.record t ~found:(found + 1) in
          after <= before +. 1e-9
          && after >= Float.max poll_cfg.Poll.min_interval
                        (before *. poll_cfg.Poll.speedup)
                      -. 1e-9)
        founds)

let prop_deterministic =
  QCheck2.Test.make ~name:"poll controller is deterministic (qcheck)"
    ~count:300 gen_founds (fun founds ->
      let play () =
        let t = Poll.create poll_cfg in
        List.map (fun found -> Poll.record t ~found) founds
      in
      play () = play ())

let test_poll_validation () =
  let bad cfg codes =
    Alcotest.(check (list string)) "codes" codes
      (List.map code_of (Poll.validate cfg))
  in
  bad { poll_cfg with Poll.min_interval = 0.0 } [ "poll-bad-min" ];
  bad { poll_cfg with Poll.max_interval = 1.0 } [ "poll-bad-max" ];
  bad { poll_cfg with Poll.backoff = 0.5 } [ "poll-bad-backoff" ];
  bad { poll_cfg with Poll.speedup = 0.0 } [ "poll-bad-speedup" ];
  bad { poll_cfg with Poll.speedup = 1.5 } [ "poll-bad-speedup" ];
  bad { poll_cfg with Poll.window = 0 } [ "poll-bad-window" ];
  match Poll.create { poll_cfg with Poll.window = 0 } with
  | exception Diagnostic.Failed _ -> ()
  | _ -> Alcotest.fail "bad knobs accepted"

(* ---------------- server fixtures ---------------- *)

let dataset =
  Tpch.generate { Tpch.scale = 0.004; distribution = Tpch.Uniform; seed = 42 }

let resolver = Server.tpch_resolver dataset

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "server-test-ckpt-%d" !n in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_server ?(config = fun c -> c) script k =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let cfg = config (Server.default_config ~checkpoint_dir:dir) in
      let script =
        match Script.parse script with
        | Ok s -> s
        | Error ds -> Alcotest.failf "script: %s" (Diagnostic.to_string ds)
      in
      k (Server.run cfg resolver script))

let outcome_of report qid =
  match
    List.find_opt (fun q -> q.Server.qr_id = qid) report.Server.r_queries
  with
  | Some q -> q.Server.qr_outcome
  | None -> Alcotest.failf "no query %s in the report" qid

let rows_of report qid =
  match outcome_of report qid with
  | Server.Done { result; _ } -> Relation.to_list result
  | _ -> Alcotest.failf "query %s did not finish" qid

(* The uninterrupted single-query oracle: the same corrective template a
   worker uses, no checkpointing, no kill, empty statistics seed. *)
let oracle spec =
  let r = resolver spec in
  let cfg =
    (Server.default_config ~checkpoint_dir:"unused").Server.corrective
  in
  let result, _ =
    Corrective.run ~config:cfg r.Server.r_query r.Server.r_catalog
      (r.Server.r_sources ())
  in
  Relation.to_list result

(* ---------------- lifecycle & supervision ---------------- *)

let test_basic_workload () =
  with_server "at 0 submit a Q3\nat 0.2 submit b Q10" (fun r ->
      Alcotest.(check int) "both done" 2 r.Server.r_done;
      Alcotest.(check int) "no deaths" 0 r.Server.r_workers_died;
      Alcotest.(check int) "initial pool only" 2 r.Server.r_workers_spawned;
      check_bag "a matches the single-query run" (oracle "Q3") (rows_of r "a");
      check_bag "b matches the single-query run" (oracle "Q10")
        (rows_of r "b");
      (* Quiescence: the server clock stops once the last query is done. *)
      Alcotest.(check bool) "finished after the last event" true
        (r.Server.r_finished_s > 0.2))

let test_bad_query_fails_structurally () =
  with_server "at 0 submit bad SELECT nonsense\nat 0 submit ok Q3" (fun r ->
      Alcotest.(check int) "one done" 1 r.Server.r_done;
      Alcotest.(check int) "one failed" 1 r.Server.r_failed;
      match outcome_of r "bad" with
      | Server.Failed msg ->
        Alcotest.(check bool) "failure names the resolver" true
          (String.length msg > 0)
      | _ -> Alcotest.fail "bad query should fail")

(* Every crash point class: the killed worker's query is reclaimed,
   resumed from its last checkpoint, and the final multiset is exactly
   the uninterrupted run's.  A non-aggregating query keeps the
   comparison bit-exact (aggregation sums floats, whose rounding
   legitimately depends on phase structure); a single-query script keeps
   the shared store empty. *)
let spj_spec =
  "SELECT orders.o_orderkey, lineitem.l_quantity FROM orders, lineitem \
   WHERE orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderdate < \
   DATE '1995-03-15'"

let test_kill_points_resume_exactly () =
  let uninterrupted = oracle spj_spec in
  List.iter
    (fun (label, point) ->
      with_server
        ~config:(fun c -> { c with Server.checkpoint_every = 500 })
        (Printf.sprintf "at 0 submit q %s\nat 0.001 kill q %s" spj_spec
           point)
        (fun r ->
          Alcotest.(check int) (label ^ ": one reclaim") 1 r.Server.r_reclaims;
          Alcotest.(check int)
            (label ^ ": replacement worker spawned")
            3 r.Server.r_workers_spawned;
          (match
             List.find (fun q -> q.Server.qr_id = "q") r.Server.r_queries
           with
           | q ->
             Alcotest.(check int) (label ^ ": two attempts") 2
               q.Server.qr_attempts);
          check_bag
            (label ^ ": multiset equals the uninterrupted run")
            uninterrupted (rows_of r "q")))
    [ "early kill, before any checkpoint", "tuples:150";
      "mid-run kill, resumes a checkpoint", "tuples:2000";
      "kill at a phase boundary", "phase:0";
      "kill during stitch-up", "stitchup" ]

(* An aggregating query killed after a checkpoint: the resume is a
   forced phase switch, so revenue sums recombine across phases — the
   multiset is the uninterrupted run's up to float summation order. *)
let test_kill_aggregate_resumes () =
  with_server
    ~config:(fun c -> { c with Server.checkpoint_every = 300 })
    "at 0 submit q Q10\nat 0.001 kill q tuples:900"
    (fun r ->
      let q = List.find (fun q -> q.Server.qr_id = "q") r.Server.r_queries in
      Alcotest.(check int) "two attempts" 2 q.Server.qr_attempts;
      (match outcome_of r "q" with
       | Server.Done { stats; _ } ->
         Alcotest.(check bool) "the resume restored phases" true
           (stats.Corrective.resumed_phases > 0)
       | _ -> Alcotest.fail "q should finish");
      Alcotest.(check bool) "same multiset as the uninterrupted run" true
        (approx_same_bag (oracle "Q10") (rows_of r "q")))

let test_retry_budget_exhausted () =
  (* Two kills armed while queued, a budget of one reclaim: the second
     death exhausts the budget and the query fails with a structured
     reason. *)
  with_server
    ~config:(fun c -> { c with Server.max_retries = 1 })
    "at 0 submit q Q10\n\
     at 0 kill q tuples:200\n\
     at 0 kill q tuples:200"
    (fun r ->
      Alcotest.(check int) "two reclaims" 2 r.Server.r_reclaims;
      Alcotest.(check int) "failed" 1 r.Server.r_failed;
      match outcome_of r "q" with
      | Server.Failed msg ->
        Alcotest.(check bool) "reason mentions the budget" true
          (let needle = "retry budget" in
           let rec go i =
             i + String.length needle <= String.length msg
             && (String.sub msg i (String.length needle) = needle
                 || go (i + 1))
           in
           go 0)
      | _ -> Alcotest.fail "should have failed")

let test_retry_backoff_delays_requeue () =
  (* The reclaimed query may not restart before now + retry_backoff. *)
  with_server
    ~config:(fun c -> { c with Server.retry_backoff = 5e5 })
    "at 0 submit q Q10\nat 0 kill q tuples:200"
    (fun r ->
      Alcotest.(check int) "done after one reclaim" 1 r.Server.r_done;
      (* death detected at ~0.2s, backoff 0.5s: nothing can finish
         before 0.7s of server time. *)
      Alcotest.(check bool) "finish waited for the backoff" true
        (r.Server.r_finished_s > 0.7))

(* ---------------- admission, cancel, drain ---------------- *)

let test_admission_queue_full () =
  with_server
    ~config:(fun c -> { c with Server.workers = 1; queue_capacity = 2 })
    "at 0 submit a Q3\n\
     at 0 submit b Q3\n\
     at 0 submit c Q3\n\
     at 0 submit d Q3"
    (fun r ->
      (* All four submissions land before the first poll drains any of
         them: a and b fill the queue, c and d shed load. *)
      Alcotest.(check int) "rejected count" 2 r.Server.r_rejected;
      Alcotest.(check int) "accepted ones finish" 2 r.Server.r_done;
      List.iter
        (fun qid ->
          match outcome_of r qid with
          | Server.Rejected reason ->
            Alcotest.(check string) "structured reason" "queue-full" reason
          | _ -> Alcotest.failf "%s should be rejected" qid)
        [ "c"; "d" ])

let test_cancel_and_drain () =
  with_server
    ~config:(fun c -> { c with Server.workers = 1 })
    "at 0 submit a Q10\n\
     at 0 submit b Q3\n\
     at 0.001 cancel b\n\
     at 0.002 drain\n\
     at 0.003 submit late Q3"
    (fun r ->
      Alcotest.(check int) "a done" 1 r.Server.r_done;
      Alcotest.(check int) "b cancelled" 1 r.Server.r_cancelled;
      Alcotest.(check int) "late rejected" 1 r.Server.r_rejected;
      (match outcome_of r "late" with
       | Server.Rejected reason ->
         Alcotest.(check string) "drain reason" "draining" reason
       | _ -> Alcotest.fail "late should be rejected");
      (* Cancelling a running or finished query is a no-op, not an
         error: 'a' still completed. *)
      check_bag "a unaffected" (oracle "Q10") (rows_of r "a"))

(* ---------------- dispatcher adaptation ---------------- *)

let test_poll_interval_adapts () =
  let poll =
    { Poll.min_interval = 1e3; max_interval = 2e4; backoff = 1.5;
      speedup = 0.7; window = 8 }
  in
  with_server
    ~config:(fun c -> { c with Server.workers = 1; poll })
    "at 0 submit a Q3\n\
     at 0 submit b Q3A\n\
     at 0 submit c Q10\n\
     at 0 submit d Q10A\n\
     at 0 submit e Q5\n\
     at 0 submit f Q3\n\
     at 2 submit g Q3"
    (fun r ->
      Alcotest.(check int) "all done" 7 r.Server.r_done;
      (* Burst: six queries through one worker drive the interval to the
         floor.  Idle gap before t=2: it stretches back to the ceiling. *)
      Alcotest.(check (float 1e-12)) "hit the configured floor"
        (poll.Poll.min_interval /. 1e6)
        r.Server.r_min_interval_s;
      Alcotest.(check (float 1e-12)) "recovered to the configured ceiling"
        (poll.Poll.max_interval /. 1e6)
        r.Server.r_max_interval_s;
      Alcotest.(check bool) "polls were mostly busy then idle" true
        (r.Server.r_busy_polls > 0
         && r.Server.r_polls > r.Server.r_busy_polls))

(* ---------------- cross-query adaptation ---------------- *)

let test_shared_selectivities_warm_start () =
  with_server "at 0 submit a Q5\nat 2 submit b Q5" (fun r ->
      Alcotest.(check int) "both done" 2 r.Server.r_done;
      let a = List.find (fun q -> q.Server.qr_id = "a") r.Server.r_queries in
      let b = List.find (fun q -> q.Server.qr_id = "b") r.Server.r_queries in
      Alcotest.(check int) "first query starts cold" 0
        a.Server.qr_warm_signatures;
      Alcotest.(check bool) "second query inherits signatures" true
        (b.Server.qr_warm_signatures > 0);
      Alcotest.(check bool) "inherited evidence changed the initial plan"
        true b.Server.qr_warm_plan_changed;
      Alcotest.(check bool) "shared store retained the evidence" true
        (r.Server.r_shared_signatures > 0);
      (* The warm plan is a different execution, but the answer is the
         same multiset (floats aggregated in a different order). *)
      Alcotest.(check bool) "warm answer matches the cold one" true
        (approx_same_bag (rows_of r "a") (rows_of r "b")))

let test_publication_is_causal () =
  (* Two queries started in the same poll round: neither can see the
     other's statistics, even though worker execution is eager. *)
  with_server "at 0 submit a Q5\nat 0 submit b Q5" (fun r ->
      let b = List.find (fun q -> q.Server.qr_id = "b") r.Server.r_queries in
      Alcotest.(check int) "concurrent query starts cold" 0
        b.Server.qr_warm_signatures;
      check_bag "identical runs, identical bits" (rows_of r "a")
        (rows_of r "b"))

(* ---------------- the acceptance workload ---------------- *)

(* Eight concurrent queries, two deterministic kills; every query's
   multiset must equal its uninterrupted single-query run (bit-identical
   where the initial plan cannot drift, rounding-tolerant where a warm
   start legitimately reorders float aggregation). *)
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

let test_acceptance_workload () =
  with_server
    ~config:(fun c ->
      { c with Server.workers = 3; checkpoint_every = 300 })
    acceptance_script
    (fun r ->
      Alcotest.(check int) "eight queries" 8
        (List.length r.Server.r_queries);
      Alcotest.(check int) "all done" 8 r.Server.r_done;
      Alcotest.(check int) "two reclaims" 2 r.Server.r_reclaims;
      Alcotest.(check int) "two worker deaths" 2 r.Server.r_workers_died;
      Alcotest.(check int) "replacements spawned" 5
        r.Server.r_workers_spawned;
      (* Queries that ran cold and uninterrupted execute the exact same
         plan as the oracle: bit-identical. *)
      List.iter
        (fun (qid, spec) ->
          check_bag
            (qid ^ " bit-identical to its uninterrupted run")
            (oracle spec) (rows_of r qid))
        [ "q1", "Q3"; "q3", "Q3A" ];
      (* Killed queries resume as a forced phase switch, and warm-started
         queries may pick a different (better) initial plan; either way
         the answer is the same multiset, with float aggregates summed in
         a different order (the SPJ kill matrix above covers strict
         bit-identity). *)
      List.iter
        (fun (qid, spec) ->
          Alcotest.(check bool)
            (qid ^ " same multiset as its uninterrupted run")
            true
            (approx_same_bag (oracle spec) (rows_of r qid)))
        [ "q2", "Q10"; "q4", "Q10A"; "q5", "Q5"; "q6", "Q3"; "q7", "Q10";
          "q8", "Q3A" ];
      (* At least one query planned with inherited selectivities. *)
      Alcotest.(check bool) "some query warm-started" true
        (List.exists
           (fun q -> q.Server.qr_warm_signatures > 0)
           r.Server.r_queries))

(* ---------------- zero perturbation ---------------- *)

let test_serve_zero_perturbation () =
  let run ~observed =
    let dir = fresh_dir () in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
      (fun () ->
        let trace = if observed then Trace.memory () else Trace.null in
        let metrics = if observed then Some (Metrics.create ()) else None in
        let cfg =
          { (Server.default_config ~checkpoint_dir:dir) with
            Server.checkpoint_every = 300; trace; metrics }
        in
        let script =
          match Script.parse acceptance_script with
          | Ok s -> s
          | Error ds -> Alcotest.failf "script: %s" (Diagnostic.to_string ds)
        in
        let r = Server.run cfg resolver script in
        (r, Trace.events trace))
  in
  let plain, _ = run ~observed:false in
  let observed, events = run ~observed:true in
  (* The JSON-safe projection covers every reported number: virtual
     times, attempt counts, poll statistics, warm-start evidence. *)
  Alcotest.(check bool) "observed view = unobserved view" true
    (Server.view plain = Server.view observed);
  List.iter
    (fun q ->
      check_bag
        (q.Server.qr_id ^ ": observed result = unobserved result")
        (rows_of plain q.Server.qr_id)
        (rows_of observed q.Server.qr_id))
    (List.filter
       (fun q ->
         match q.Server.qr_outcome with Server.Done _ -> true | _ -> false)
       plain.Server.r_queries);
  (* The trace is substantive: server supervision events plus the
     workers' own adaptive records re-stamped onto the server clock. *)
  let has pred msg =
    Alcotest.(check bool) msg true
      (List.exists (fun (_, ev) -> pred ev) events)
  in
  has (function Trace.Worker_spawned _ -> true | _ -> false)
    "worker spawns traced";
  has (function Trace.Worker_died _ -> true | _ -> false)
    "worker deaths traced";
  has (function Trace.Worker_reclaimed _ -> true | _ -> false)
    "reclaims traced";
  has (function Trace.Poll_interval_changed _ -> true | _ -> false)
    "poll-interval moves traced";
  has (function Trace.Admission _ -> true | _ -> false)
    "admissions traced";
  has (function Trace.Phase_opened _ -> true | _ -> false)
    "inner phase events re-stamped";
  has (function Trace.Checkpoint_resumed _ -> true | _ -> false)
    "checkpoint resume re-stamped";
  (* Re-stamped inner timestamps stay within the serve's lifetime. *)
  Alcotest.(check bool) "timestamps within the serve" true
    (List.for_all
       (fun (ts, _) ->
         ts >= 0.0 && ts <= plain.Server.r_finished_s *. 1e6 +. 1.0)
       events)

(* One profile shared by every query of a serve keys each query's spans
   by its own scope, and each attempt's trace carries only the
   [Node_profile] events of that scope: no other query's spans, and no
   merging of same-named nodes across queries. *)
let test_shared_profile_scoped_per_query () =
  let profile = Profile.create () in
  let trace = Trace.memory () in
  let config c =
    { c with
      Server.trace;
      corrective =
        { c.Server.corrective with Corrective.profile = Some profile } }
  in
  with_server ~config "at 0 submit a Q3\nat 0.2 submit b Q10" (fun r ->
      Alcotest.(check int) "both done" 2 r.Server.r_done;
      (* Attribute each Node_profile event to the attempt block that
         carries it. *)
      let rec lanes owner left = function
        | [] -> []
        | (_, Trace.Query_attempt { query; events; _ }) :: rest ->
          lanes query events rest
        | (_, ev) :: rest when left > 0 ->
          let tail = lanes owner (left - 1) rest in
          (match ev with
           | Trace.Node_profile { phase; _ } -> (owner, phase) :: tail
           | _ -> tail)
        | _ :: rest -> lanes owner left rest
      in
      let tagged = lanes "" 0 (Trace.events trace) in
      List.iter
        (fun q ->
          Alcotest.(check bool) (q ^ ": node profiles traced") true
            (List.mem_assoc q tagged))
        [ "a"; "b" ];
      List.iter
        (fun (q, phase) ->
          if not (String.starts_with ~prefix:("q:" ^ q ^ ":") phase) then
            Alcotest.failf "query %s's trace carries a span of phase %s" q
              phase)
        tagged;
      Alcotest.(check bool) "the shared profile keys every span by query"
        true
        (List.for_all
           (fun (i : Profile.info) ->
             String.starts_with ~prefix:"q:a:" i.Profile.phase
             || String.starts_with ~prefix:"q:b:" i.Profile.phase)
           (Profile.spans profile)))

let test_config_validation () =
  let base = Server.default_config ~checkpoint_dir:"x" in
  let codes cfg = List.map code_of (Server.validate cfg) in
  Alcotest.(check (list string)) "default valid" [] (codes base);
  Alcotest.(check (list string)) "bad workers" [ "server-bad-workers" ]
    (codes { base with Server.workers = 0 });
  Alcotest.(check (list string)) "bad capacity" [ "server-bad-capacity" ]
    (codes { base with Server.queue_capacity = 0 });
  Alcotest.(check (list string)) "bad retries" [ "server-bad-retries" ]
    (codes { base with Server.max_retries = -1 });
  Alcotest.(check bool) "poll knobs included" true
    (List.mem "poll-bad-backoff"
       (codes
          { base with
            Server.poll = { base.Server.poll with Poll.backoff = 0.9 } }));
  match
    Server.run { base with Server.workers = 0 } resolver []
  with
  | exception Diagnostic.Failed _ -> ()
  | _ -> Alcotest.fail "invalid config accepted"

let suite =
  [ Alcotest.test_case "script grammar" `Quick test_script_grammar;
    Alcotest.test_case "script diagnostics" `Quick test_script_diagnostics;
    qtest prop_interval_in_bounds;
    qtest prop_empty_polls_monotone;
    qtest prop_speedup_bounded_by_window;
    qtest prop_deterministic;
    Alcotest.test_case "poll validation" `Quick test_poll_validation;
    Alcotest.test_case "basic workload" `Quick test_basic_workload;
    Alcotest.test_case "bad query fails structurally" `Quick
      test_bad_query_fails_structurally;
    Alcotest.test_case "kill points resume exactly" `Quick
      test_kill_points_resume_exactly;
    Alcotest.test_case "aggregate kill resumes" `Quick
      test_kill_aggregate_resumes;
    Alcotest.test_case "retry budget exhausted" `Quick
      test_retry_budget_exhausted;
    Alcotest.test_case "retry backoff delays requeue" `Quick
      test_retry_backoff_delays_requeue;
    Alcotest.test_case "admission queue-full" `Quick
      test_admission_queue_full;
    Alcotest.test_case "cancel and drain" `Quick test_cancel_and_drain;
    Alcotest.test_case "poll interval adapts" `Quick
      test_poll_interval_adapts;
    Alcotest.test_case "shared selectivities warm start" `Quick
      test_shared_selectivities_warm_start;
    Alcotest.test_case "publication is causal" `Quick
      test_publication_is_causal;
    Alcotest.test_case "acceptance workload" `Quick
      test_acceptance_workload;
    Alcotest.test_case "serve zero perturbation" `Quick
      test_serve_zero_perturbation;
    Alcotest.test_case "shared profile scoped per query" `Quick
      test_shared_profile_scoped_per_query;
    Alcotest.test_case "config validation" `Quick test_config_validation ]
