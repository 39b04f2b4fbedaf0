(* Resource governance: circuit-breaker state-machine properties
   (qcheck), driver-level breaker integration, the deliberate-degradation
   contract (a deadline- or memory-limited run exits cleanly with a
   partial answer that is a subset-multiset of the uninterrupted run's,
   bit-identically across repeats and under tracing), the governance knob
   analyzer, the serve-script class=/deadline= grammar, and server-level
   overload protection (class quotas, priority dispatch, deadline
   shedding, report round-trip). *)

open Adp_relation
open Adp_datagen
open Adp_exec
open Helpers
module Corrective = Adp_core.Corrective
module Strategy = Adp_core.Strategy
module Analyzer = Adp_analysis.Analyzer
module Diagnostic = Adp_analysis.Diagnostic
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Workload = Adp_query.Workload
module Sql_parser = Adp_query.Sql_parser
module Script = Adp_server.Script
module Server = Adp_server.Server

(* ---------------- breaker properties ---------------- *)

let bp =
  { Breaker.window_s = 2.0; failure_threshold = 3; cooldown_s = 0.5;
    probe_jitter = 0.1; seed = 7 }

(* Random observation schedules: (virtual-µs gap, failure?) pairs. *)
let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 80) (pair (int_bound 3_000_000) (int_bound 4))
    |> map (List.map (fun (dt, k) -> (float_of_int dt, k < 3))))

let prop_trip_needs_threshold =
  (* A breaker never leaves Closed for Open without at least
     [failure_threshold] failures inside the sliding window at the moment
     of the trip. *)
  QCheck2.Test.make
    ~name:"closed->open only with threshold failures in window (qcheck)"
    ~count:300 gen_ops (fun ops ->
      let b = Breaker.create bp in
      let now = ref 0.0 in
      List.for_all
        (fun (dt, fail) ->
          now := !now +. dt;
          let before = Breaker.state b in
          let changed =
            if fail then Breaker.record_failure b ~now:!now
            else Breaker.record_success b ~now:!now
          in
          if changed && before = Breaker.Closed && Breaker.state b = Breaker.Open
          then Breaker.failure_count b ~now:!now >= bp.Breaker.failure_threshold
          else true)
        ops)

let prop_half_open_single_probe =
  (* Once open, the breaker refuses until its probe time, then admits
     exactly one attempt; while that probe is in flight every further
     [allow] refuses, whatever the clock says. *)
  QCheck2.Test.make ~name:"half-open admits exactly one probe (qcheck)"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 20) (int_bound 2_000_000))
    (fun gaps ->
      let b = Breaker.create bp in
      (* Trip it: threshold failures in a burst at t=0. *)
      for _ = 1 to bp.Breaker.failure_threshold do
        ignore (Breaker.record_failure b ~now:0.0)
      done;
      Breaker.state b = Breaker.Open
      &&
      let pa = Breaker.probe_at b in
      (not (Breaker.allow b ~now:(pa -. 1.0)))
      && Breaker.allow b ~now:pa
      && Breaker.state b = Breaker.Half_open
      &&
      (Breaker.note_probe b;
       let now = ref pa in
       List.for_all
         (fun dt ->
           now := !now +. float_of_int dt;
           not (Breaker.allow b ~now:!now))
         gaps
       &&
       (* The failed probe re-opens with a fresh cooldown in the future. *)
       Breaker.record_failure b ~now:!now
       && Breaker.state b = Breaker.Open
       && Breaker.probe_at b > !now))

let prop_breaker_deterministic =
  (* Same policy, same salt, same observations: identical trips,
     transitions and probe schedule — the jitter stream is seeded. *)
  QCheck2.Test.make ~name:"breaker trip/reset schedule is seeded (qcheck)"
    ~count:300 gen_ops (fun ops ->
      let play () =
        let b = Breaker.create ~salt:3 bp in
        let now = ref 0.0 in
        List.map
          (fun (dt, fail) ->
            now := !now +. dt;
            let changed =
              if fail then Breaker.record_failure b ~now:!now
              else Breaker.record_success b ~now:!now
            in
            ( changed, Breaker.state b, Breaker.trips b,
              Breaker.transitions b, Breaker.probe_at b ))
          ops
      in
      play () = play ())

let test_breaker_success_closes_and_clears () =
  let b = Breaker.create bp in
  for _ = 1 to bp.Breaker.failure_threshold do
    ignore (Breaker.record_failure b ~now:0.0)
  done;
  Alcotest.(check bool) "tripped" true (Breaker.state b = Breaker.Open);
  (* Live data arriving while open closes the breaker directly and clears
     the failure window — no probe needed. *)
  Alcotest.(check bool) "success while open changes state" true
    (Breaker.record_success b ~now:1e5);
  Alcotest.(check bool) "closed" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check int) "window cleared" 0 (Breaker.failure_count b ~now:1e5);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b)

(* ---------------- driver-level breaker integration ---------------- *)

let mk_rel n = rel [ "t.k"; "t.p" ] (List.init n (fun i -> [ vi i; vi 0 ]))
let free_costs = { Cost_model.default with Cost_model.reconnect = 0.0 }

let retry_fast =
  { Retry.default_policy with
    Retry.timeout_s = 0.2; max_retries = 10; backoff_initial_s = 0.1;
    backoff_multiplier = 2.0; jitter = 0.0 }

let test_driver_breaker_recovers () =
  (* A disconnect burns failures until the breaker opens; a later probe
     finds the source rejoined, closes the breaker, and the run still
     delivers every tuple. *)
  let run () =
    let s =
      Source.create ~name:"r"
        ~faults:
          [ Source.Disconnect { after_tuples = 2; rejoin_after_s = Some 2.0 } ]
        (mk_rel 6) (Source.Bandwidth 10.0)
    in
    let brs =
      [| Breaker.create ~salt:0
           { Breaker.window_s = 60.0; failure_threshold = 2; cooldown_s = 1.0;
             probe_jitter = 0.0; seed = 5 } |]
    in
    let ctx = Ctx.create ~costs:free_costs () in
    let seen = ref 0 in
    let outcome =
      Driver.run ctx ~sources:[ s ] ~consume:(fun _ _ -> incr seen)
        ~retry:retry_fast ~breakers:brs ()
    in
    (outcome, !seen, Breaker.trips brs.(0), Breaker.state brs.(0),
     Metrics.count ctx.Ctx.breaker_trips,
     Metrics.count ctx.Ctx.breaker_transitions)
  in
  let ((outcome, seen, trips, st, m_trips, m_transitions) as a) = run () in
  Alcotest.(check bool) "exhausted" true (outcome = Driver.Exhausted);
  Alcotest.(check int) "all tuples delivered" 6 seen;
  Alcotest.(check bool) "breaker tripped" true (trips >= 1);
  Alcotest.(check bool) "closed again at the end" true (st = Breaker.Closed);
  Alcotest.(check int) "ctx counter matches the breaker" trips m_trips;
  Alcotest.(check bool) "transitions counted" true (m_transitions >= 2);
  Alcotest.(check bool) "deterministic across runs" true (a = run ())

(* ---------------- deliberate degradation ---------------- *)

(* An SPJ query (no aggregation): only for these is "partial input in,
   partial answer out" a subset-multiset — an aggregate over partial
   input produces different tuples, not fewer. *)
let spj_sql =
  "SELECT orders.o_orderkey, lineitem.l_quantity FROM orders, lineitem \
   WHERE orders.o_orderkey = lineitem.l_orderkey \
   AND orders.o_orderdate < DATE '1995-03-15'"

let dataset =
  Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Uniform; seed = 11 }

let spj_query = lazy (Sql_parser.parse ~schema_of:Tpch.schema_of spj_sql)

let spj_run ?(config = Corrective.default_config) () =
  let q = Lazy.force spj_query in
  let catalog = Workload.catalog dataset q in
  let sources = Workload.sources ~model:(Source.Bandwidth 2000.0) dataset q () in
  let result, stats = Corrective.run ~config q catalog sources in
  (Relation.to_list result, stats)

(* Is [small] a subset-multiset of [big]? *)
let bag_subset small big =
  let rec go s b =
    match (s, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: s', y :: b' ->
      let c = Tuple.compare x y in
      if c = 0 then go s' b' else if c > 0 then go s b' else false
  in
  go (List.sort Tuple.compare small) (List.sort Tuple.compare big)

let full_run = lazy (spj_run ())

let test_deadline_degrades_to_subset () =
  let full_rows, full = Lazy.force full_run in
  Alcotest.(check (option string)) "full run is complete" None
    full.Corrective.degraded_reason;
  let deadline = 0.3 *. full.Corrective.total_time in
  let config = { Corrective.default_config with deadline = Some deadline } in
  let rows, stats = spj_run ~config () in
  Alcotest.(check (option string)) "degraded by the deadline"
    (Some "deadline") stats.Corrective.degraded_reason;
  Alcotest.(check bool) "partial coverage reported" true
    (stats.Corrective.coverage < 1.0);
  Alcotest.(check bool) "finished before the full run" true
    (stats.Corrective.total_time < full.Corrective.total_time);
  Alcotest.(check bool) "degraded rows are a subset-multiset" true
    (bag_subset rows full_rows);
  Alcotest.(check bool) "strictly partial" true
    (List.length rows < List.length full_rows);
  (* Same seed, same knobs: bit-identical repeat. *)
  let rows2, stats2 = spj_run ~config () in
  Alcotest.(check bool) "repeat run is bit-identical" true
    (List.for_all2 Tuple.equal rows rows2
     && stats.Corrective.total_time = stats2.Corrective.total_time
     && stats.Corrective.result_card = stats2.Corrective.result_card
     && stats.Corrective.coverage = stats2.Corrective.coverage)

let test_ceiling_degrades_to_subset () =
  let full_rows, _ = Lazy.force full_run in
  let config =
    { Corrective.default_config with memory_ceiling = Some 200 }
  in
  let rows, stats = spj_run ~config () in
  Alcotest.(check (option string)) "degraded by the memory ceiling"
    (Some "memory") stats.Corrective.degraded_reason;
  Alcotest.(check bool) "rows are a subset-multiset" true
    (bag_subset rows full_rows)

let test_degraded_zero_perturbation () =
  (* Tracing and metrics must not move the clock or the rows of a
     degraded run — same contract as for complete runs. *)
  let full, _ = Lazy.force full_run in
  ignore full;
  let _, base = Lazy.force full_run in
  let deadline = 0.3 *. base.Corrective.total_time in
  let plain_rows, plain =
    spj_run ~config:{ Corrective.default_config with deadline = Some deadline }
      ()
  in
  let trace = Trace.memory () in
  let metrics = Metrics.create () in
  let traced_rows, traced =
    spj_run
      ~config:
        { Corrective.default_config with
          deadline = Some deadline; trace; metrics = Some metrics }
      ()
  in
  Alcotest.(check bool) "rows identical under tracing" true
    (List.length plain_rows = List.length traced_rows
     && List.for_all2 Tuple.equal plain_rows traced_rows);
  Alcotest.(check (float 0.0)) "clock identical under tracing"
    plain.Corrective.total_time traced.Corrective.total_time;
  let has pred =
    List.exists (fun (_, ev) -> pred ev) (Trace.events trace)
  in
  Alcotest.(check bool) "deadline event emitted" true
    (has (function Trace.Deadline_exceeded _ -> true | _ -> false));
  Alcotest.(check bool) "degradation event emitted" true
    (has (function
      | Trace.Query_degraded { reason = "deadline"; _ } -> true
      | _ -> false))

(* ---------------- governance knob analyzer ---------------- *)

let gov_codes ?(poll_interval = 1e6) ?deadline ?memory_budget ?memory_ceiling
    ?breaker () =
  List.map
    (fun (d : Diagnostic.t) -> d.Diagnostic.code)
    (Analyzer.check_governance ~poll_interval ~deadline ~memory_budget
       ~memory_ceiling ~breaker)

let test_governance_knob_validation () =
  let check msg want got = Alcotest.(check (list string)) msg want got in
  check "all absent is fine" [] (gov_codes ());
  check "sane knobs are fine" []
    (gov_codes ~deadline:1e6 ~memory_budget:1000 ~memory_ceiling:2000
       ~breaker:Breaker.default_policy ());
  check "deadline must be positive" [ "gov-bad-deadline" ]
    (gov_codes ~deadline:0.0 ());
  check "budget must be positive" [ "gov-bad-budget" ]
    (gov_codes ~memory_budget:0 ());
  check "ceiling must be positive" [ "gov-bad-ceiling" ]
    (gov_codes ~memory_ceiling:(-5) ());
  check "ceiling below budget" [ "gov-ceiling-below-budget" ]
    (gov_codes ~memory_budget:1000 ~memory_ceiling:500 ());
  check "breaker window must be positive" [ "gov-bad-breaker" ]
    (gov_codes ~breaker:{ Breaker.default_policy with window_s = 0.0 } ());
  check "breaker threshold at least 1" [ "gov-bad-breaker" ]
    (gov_codes ~breaker:{ Breaker.default_policy with failure_threshold = 0 }
       ());
  check "breaker cooldown must be positive" [ "gov-bad-breaker" ]
    (gov_codes ~breaker:{ Breaker.default_policy with cooldown_s = -1.0 } ());
  check "breaker jitter in [0,1)" [ "gov-bad-breaker" ]
    (gov_codes ~breaker:{ Breaker.default_policy with probe_jitter = 1.0 } ());
  check "window shorter than cooldown flaps" [ "gov-breaker-window" ]
    (gov_codes
       ~breaker:{ Breaker.default_policy with window_s = 2.0; cooldown_s = 5.0 }
       ());
  check "a run that never polls enforces no limit"
    [ "gov-needs-polls"; "gov-needs-polls"; "gov-needs-polls" ]
    (gov_codes ~poll_interval:infinity ~deadline:1e6 ~memory_budget:1000
       ~memory_ceiling:2000 ());
  check "a run that never polls still takes a breaker" []
    (gov_codes ~poll_interval:infinity ~breaker:Breaker.default_policy ())

(* Deadlines and memory limits are enforced at re-optimizer polls, which
   a static run never takes: such a run is refused up front instead of
   silently running without its limit.  The breaker lives in the driver,
   so a static run keeps it. *)
let test_static_refuses_poll_limits () =
  let q = Lazy.force spj_query in
  let catalog = Workload.catalog dataset q in
  let run config =
    Strategy.run (Strategy.Corrective config) q catalog
      ~sources:(Workload.sources ~model:(Source.Bandwidth 2000.0) dataset q)
  in
  let refused msg config =
    match run config with
    | _ -> Alcotest.failf "%s: the static run was not refused" msg
    | exception Diagnostic.Failed (_, ds) ->
      Alcotest.(check (list string)) msg [ "gov-needs-polls" ]
        (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds)
  in
  let static = Strategy.static_config in
  refused "deadline" { static with deadline = Some 1e5 };
  refused "memory budget" { static with memory_budget = Some 100 };
  refused "memory ceiling" { static with memory_ceiling = Some 800 };
  let o = run { static with breaker = Some Breaker.default_policy } in
  Alcotest.(check int) "a breaker runs on a static run"
    (List.length (fst (Lazy.force full_run)))
    (Relation.cardinality o.Strategy.result)

(* ---------------- serve-script grammar ---------------- *)

let test_script_governance_grammar () =
  let text =
    "at 0 submit plain Q3\n\
     at 0.5 submit tagged class=interactive deadline=2.5 Q10\n\
     at 1 submit sql deadline=0.25 SELECT * FROM x\n"
  in
  match Script.parse text with
  | Error ds -> Alcotest.failf "parse failed: %s" (Diagnostic.to_string ds)
  | Ok s ->
    (match List.map snd s with
     | [ Script.Submit { klass = None; deadline_s = None; spec = "Q3"; _ };
         Script.Submit
           { klass = Some "interactive"; deadline_s = Some 2.5;
             spec = "Q10"; _ };
         Script.Submit
           { klass = None; deadline_s = Some 0.25;
             spec = "SELECT * FROM x"; _ } ] -> ()
     | _ -> Alcotest.fail "class=/deadline= tokens did not parse")

let test_script_governance_diagnostics () =
  let expect_codes text codes =
    match Script.parse text with
    | Ok _ -> Alcotest.failf "accepted: %s" text
    | Error ds ->
      Alcotest.(check (list string)) text codes
        (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds)
  in
  expect_codes "at 0 submit q1 class=b@d Q3" [ "script-bad-class" ];
  expect_codes "at 0 submit q1 deadline=0 Q3" [ "script-bad-deadline" ];
  expect_codes "at 0 submit q1 deadline=soon Q3" [ "script-bad-deadline" ];
  (* Governance tokens alone leave no query spec. *)
  expect_codes "at 0 submit q1 class=interactive" [ "script-syntax" ]

(* ---------------- server-level overload protection ---------------- *)

let server_dataset =
  Tpch.generate { Tpch.scale = 0.004; distribution = Tpch.Uniform; seed = 42 }

let resolver = Server.tpch_resolver server_dataset

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "gov-test-ckpt-%d" !n in
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

let find_query r qid =
  match
    List.find_opt (fun q -> q.Server.qr_id = qid) r.Server.r_queries
  with
  | Some q -> q
  | None -> Alcotest.failf "no query %s in the report" qid

(* The single-query duration oracle: used to scale script deadlines so
   the tests do not hard-code virtual timings. *)
let q3_duration_s =
  lazy
    (let r = resolver "Q3" in
     let cfg =
       (Server.default_config ~checkpoint_dir:"unused").Server.corrective
     in
     let _, stats =
       Corrective.run ~config:cfg r.Server.r_query r.Server.r_catalog
         (r.Server.r_sources ())
     in
     stats.Corrective.total_time /. 1e6)

let test_server_validate_governance () =
  let codes cfg =
    List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code)
      (Server.validate cfg)
  in
  let base = Server.default_config ~checkpoint_dir:"unused" in
  Alcotest.(check (list string)) "defaults are fine" [] (codes base);
  Alcotest.(check (list string)) "empty class name"
    [ "server-bad-class" ]
    (codes { base with Server.class_quotas = [ ("", 1) ] });
  Alcotest.(check (list string)) "zero quota"
    [ "server-bad-class" ]
    (codes { base with Server.class_quotas = [ ("a", 0) ] });
  Alcotest.(check (list string)) "duplicate class"
    [ "server-bad-class" ]
    (codes { base with Server.class_quotas = [ ("a", 1); ("a", 2) ] });
  Alcotest.(check (list string)) "budget below one tuple per worker"
    [ "server-bad-memory" ]
    (codes { base with Server.memory_budget = Some 1 })

let test_class_quotas_and_priority () =
  let d = Lazy.force q3_duration_s in
  let t i = d *. 0.02 *. float_of_int i in
  let script =
    Printf.sprintf
      "at 0 submit busy Q3\n\
       at %.6f submit b1 class=batch Q3\n\
       at %.6f submit b2 class=batch Q3\n\
       at %.6f submit i1 class=interactive Q3\n\
       at %.6f submit b3 class=batch Q3\n\
       at %.6f submit p1 class=premium Q3\n"
      (t 1) (t 2) (t 3) (t 4) (t 5)
  in
  with_server
    ~config:(fun c ->
      { c with
        Server.workers = 1;
        class_quotas = [ ("interactive", 2); ("batch", 2) ] })
    script
    (fun r ->
      (* Quota: a third batch submission finds two batch queries already
         waiting and is turned away even though the queue has room. *)
      (match (find_query r "b3").Server.qr_outcome with
       | Server.Rejected reason ->
         Alcotest.(check string) "quota reject names the class"
           "class-quota:batch" reason
       | _ -> Alcotest.fail "b3 should be rejected by its class quota");
      (* A class the server was not configured with is rejected. *)
      (match (find_query r "p1").Server.qr_outcome with
       | Server.Rejected reason ->
         Alcotest.(check string) "unknown class named"
           "unknown-class:premium" reason
       | _ -> Alcotest.fail "p1 should be rejected as unknown class");
      (* Priority: interactive dispatches before batch work submitted
         earlier. *)
      let fin qid = (find_query r qid).Server.qr_finished_s in
      Alcotest.(check bool) "interactive overtakes batch" true
        (fin "i1" < fin "b1");
      Alcotest.(check string) "class recorded in the report" "interactive"
        (Option.value ~default:"" (find_query r "i1").Server.qr_class);
      Alcotest.(check int) "everything else completes" 4 r.Server.r_done)

let test_deadline_shed_and_degrade () =
  let d = Lazy.force q3_duration_s in
  (* Shedding: with one worker busy, a queued query whose deadline passes
     before dispatch is dropped at a poll, not executed. *)
  let shed_script =
    Printf.sprintf "at 0 submit busy Q3\nat %.6f submit doomed deadline=%.6f Q3"
      (d *. 0.05) (d *. 0.05)
  in
  with_server ~config:(fun c -> { c with Server.workers = 1 }) shed_script
    (fun r ->
      (match (find_query r "doomed").Server.qr_outcome with
       | Server.Rejected reason ->
         Alcotest.(check string) "shed reason" "deadline-shed" reason
       | _ -> Alcotest.fail "doomed should be shed");
      Alcotest.(check int) "shed counted" 1 r.Server.r_shed;
      Alcotest.(check int) "shed counts among rejected" 1 r.Server.r_rejected;
      Alcotest.(check int) "busy still completes" 1 r.Server.r_done);
  (* Mid-flight degradation: a dispatched query whose deadline hits
     during execution finishes as a partial answer, not a failure. *)
  let degrade_script = Printf.sprintf "at 0 submit slow deadline=%.6f Q3" (d *. 0.3) in
  with_server ~config:(fun c -> { c with Server.workers = 1 }) degrade_script
    (fun r ->
      let q = find_query r "slow" in
      (match q.Server.qr_outcome with
       | Server.Done { stats; _ } ->
         Alcotest.(check (option string)) "degraded in-flight"
           (Some "deadline") stats.Corrective.degraded_reason;
         Alcotest.(check bool) "partial coverage" true
           (stats.Corrective.coverage < 1.0)
       | _ -> Alcotest.fail "slow should finish degraded, not fail");
      (* The script text carries the deadline rounded to µs precision. *)
      Alcotest.(check (option (float 1e-6))) "deadline recorded"
        (Some (d *. 0.3)) q.Server.qr_deadline_s;
      (* The view carries the governance columns. *)
      let qv = List.hd (Server.view r).Server.vr_queries in
      Alcotest.(check string) "view degraded column" "deadline"
        qv.Server.v_degraded)

let suite =
  [ Alcotest.test_case "breaker: success while open closes and clears" `Quick
      test_breaker_success_closes_and_clears;
    qtest prop_trip_needs_threshold;
    qtest prop_half_open_single_probe;
    qtest prop_breaker_deterministic;
    Alcotest.test_case "driver: breaker trips, probes and recovers" `Quick
      test_driver_breaker_recovers;
    Alcotest.test_case "deadline degrades to a subset-multiset" `Slow
      test_deadline_degrades_to_subset;
    Alcotest.test_case "memory ceiling degrades to a subset-multiset" `Slow
      test_ceiling_degrades_to_subset;
    Alcotest.test_case "degraded runs are zero-perturbation" `Slow
      test_degraded_zero_perturbation;
    Alcotest.test_case "governance knob validation" `Quick
      test_governance_knob_validation;
    Alcotest.test_case "static runs refuse deadlines and memory limits" `Quick
      test_static_refuses_poll_limits;
    Alcotest.test_case "script: class=/deadline= grammar" `Quick
      test_script_governance_grammar;
    Alcotest.test_case "script: governance diagnostics" `Quick
      test_script_governance_diagnostics;
    Alcotest.test_case "server: governance knob validation" `Quick
      test_server_validate_governance;
    Alcotest.test_case "server: class quotas and priority dispatch" `Slow
      test_class_quotas_and_priority;
    Alcotest.test_case "server: deadline shedding and degradation" `Slow
      test_deadline_shed_and_degrade ]
