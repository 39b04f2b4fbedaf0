(* Fault-injection and fault-tolerance layer: deterministic stalls,
   disconnects, retry/backoff schedules, mirror failover (with lagging
   replicas re-streaming an overlap), and graceful degradation to partial
   results when every mirror is gone. *)

open Adp_relation
open Adp_datagen
open Adp_exec
open Adp_core
open Adp_query
open Helpers
module Trace = Adp_obs.Trace

let mk_rel n = rel [ "t.k"; "t.p" ] (List.init n (fun i -> [ vi i; vi 0 ]))

(* Zero-cost reconnects keep the retry arithmetic exact. *)
let free_costs = { Cost_model.default with Cost_model.reconnect = 0.0 }

let policy ?(timeout = 0.2) ?(retries = 5) ?(backoff = 0.1) () =
  { Retry.default_policy with
    Retry.timeout_s = timeout; max_retries = retries;
    backoff_initial_s = backoff; backoff_multiplier = 2.0; jitter = 0.0 }

let drain ?poll ?retry ?(costs = free_costs) sources =
  let ctx = Ctx.create ~costs () in
  let seen = ref [] in
  let consume _ t = seen := t :: !seen in
  let outcome = Driver.run ctx ~sources ~consume ?poll ?retry () in
  ctx, List.rev !seen, outcome

(* ---------------- Retry controller ---------------- *)

let test_retry_schedule () =
  let c = Retry.create (policy ()) in
  Alcotest.(check (float 1e-6)) "deadline from zero" 2e5 (Retry.deadline c);
  Retry.note_progress c ~now:1e5;
  Alcotest.(check (float 1e-6)) "deadline tracks progress" 3e5
    (Retry.deadline c);
  (* Failed attempts: exponential backoff 0.1s, 0.2s, 0.4s ... *)
  Retry.record_failure c ~now:3e5;
  Alcotest.(check (option (float 1e-6))) "first backoff" (Some 4e5)
    (Retry.pending_attempt c);
  Retry.record_failure c ~now:4e5;
  Alcotest.(check (option (float 1e-6))) "second backoff doubles" (Some 6e5)
    (Retry.pending_attempt c);
  Retry.record_failure c ~now:6e5;
  Alcotest.(check (option (float 1e-6))) "third backoff doubles again"
    (Some 1e6) (Retry.pending_attempt c);
  Alcotest.(check int) "attempts counted" 3 (Retry.attempts c);
  Alcotest.(check bool) "budget not yet spent" false (Retry.exhausted c);
  Retry.record_failure c ~now:1e6;
  Retry.record_failure c ~now:1.8e6;
  Alcotest.(check bool) "budget spent" true (Retry.exhausted c);
  Retry.record_success c ~now:2e6;
  Alcotest.(check int) "success resets attempts" 0 (Retry.attempts c);
  Alcotest.(check int) "all attempts recorded" 6 (Retry.retries_total c);
  (* Backoff caps at backoff_max_s. *)
  let capped =
    Retry.create
      { (policy ~backoff:10.0 ()) with Retry.backoff_max_s = 15.0 }
  in
  Retry.record_failure capped ~now:0.0;
  Retry.record_failure capped ~now:0.0;
  Alcotest.(check (option (float 1e-6))) "backoff capped" (Some 15e6)
    (Retry.pending_attempt capped)

let test_backoff_jitter_deterministic () =
  (* Jittered backoff draws from a seeded stream: the same seed and salt
     must reproduce the exact attempt schedule, run after run. *)
  let jittered = { (policy ()) with Retry.jitter = 0.3; seed = 42 } in
  let schedule ~salt =
    let c = Retry.create ~salt jittered in
    List.map
      (fun i ->
        Retry.record_failure c ~now:(float_of_int i *. 1e5);
        Retry.pending_attempt c)
      [ 3; 4; 6; 10 ]
  in
  Alcotest.(check bool) "same seed+salt => identical schedule" true
    (schedule ~salt:1 = schedule ~salt:1);
  Alcotest.(check bool) "different salt => different jitter stream" true
    (schedule ~salt:1 <> schedule ~salt:2);
  (* End to end: two identical faulty runs with jitter enabled must agree
     on every clock counter — in particular the retry-idle charge, which
     accumulates exactly the jittered backoff waits. *)
  let run () =
    let s =
      Source.create ~name:"r"
        ~faults:
          [ Source.Disconnect { after_tuples = 2; rejoin_after_s = Some 1.0 } ]
        (mk_rel 5) (Source.Bandwidth 10.0)
    in
    let ctx, seen, outcome = drain ~retry:jittered [ s ] in
    ( Clock.retry_idle ctx.Ctx.clock, Clock.idle ctx.Ctx.clock,
      Clock.capture ctx.Ctx.clock, Adp_obs.Metrics.count ctx.Ctx.retries,
      List.length seen,
      outcome )
  in
  let (ri_a, _, _, retries_a, _, _) as a = run () in
  let b = run () in
  Alcotest.(check bool) "identical retry_idle sequence across runs" true
    (a = b);
  Alcotest.(check bool) "jittered backoff actually waited" true (ri_a > 0.0);
  Alcotest.(check bool) "retries actually happened" true (retries_a > 0)

(* ---------------- Stall ---------------- *)

let test_stall_is_transient () =
  (* Bandwidth 10 t/s: arrivals 0, 1e5, 2e5, ...; a 1 s stall after two
     tuples pushes the third to 1.2e6.  The 0.2 s timeout fires repeatedly
     but every reconnect finds the link up, so the stall never consumes
     the retry budget and never fails over. *)
  let s =
    Source.create ~name:"r"
      ~faults:[ Source.Stall { after_tuples = 2; duration_s = 1.0 } ]
      (mk_rel 5) (Source.Bandwidth 10.0)
  in
  let ctx, seen, outcome = drain ~retry:(policy ()) [ s ] in
  Alcotest.(check bool) "exhausted" true (outcome = Driver.Exhausted);
  Alcotest.(check int) "all tuples delivered" 5 (List.length seen);
  (* Reconnect probes at deadlines 3e5, 5e5, 7e5, 9e5, 1.1e6; the tuple
     lands at 1.2e6 within the next window. *)
  Alcotest.(check int) "probes during the stall" 5 (Adp_obs.Metrics.count ctx.Ctx.retries);
  Alcotest.(check int) "no failover" 0 (Adp_obs.Metrics.count ctx.Ctx.failovers);
  Alcotest.(check (float 1e-6)) "completion time" 1.4e6 (Ctx.now ctx);
  Alcotest.(check bool) "timeout waits recorded as retry idle" true
    (Clock.retry_idle ctx.Ctx.clock > 0.0)

(* ---------------- Disconnect + rejoin: exact backoff schedule -------- *)

let test_disconnect_rejoin_backoff () =
  (* Drop after tuple 2 (arrival 1e5), rejoin 1 s later at 1.1e6.
     Timeout 0.2 s => first attempt at 3e5; backoffs 0.1/0.2/0.4/0.8 s =>
     attempts at 4e5, 6e5, 1e6 all fail, the attempt at 1.8e6 succeeds.
     Arrivals rebase to 1.9e6, 2.0e6, 2.1e6. *)
  let s =
    Source.create ~name:"r"
      ~faults:
        [ Source.Disconnect { after_tuples = 2; rejoin_after_s = Some 1.0 } ]
      (mk_rel 5) (Source.Bandwidth 10.0)
  in
  let ctx, seen, _ = drain ~retry:(policy ()) [ s ] in
  Alcotest.(check int) "all tuples delivered" 5 (List.length seen);
  Alcotest.(check int) "five attempts" 5 (Adp_obs.Metrics.count ctx.Ctx.retries);
  Alcotest.(check int) "no failover needed" 0 (Adp_obs.Metrics.count ctx.Ctx.failovers);
  Alcotest.(check (float 1e-6)) "completion time" 2.1e6 (Ctx.now ctx);
  (* Retry idle: waits into the five attempt events,
     2e5 + 1e5 + 2e5 + 4e5 + 8e5. *)
  Alcotest.(check (float 1e-6)) "backoff schedule charged as retry idle"
    1.7e6
    (Clock.retry_idle ctx.Ctx.clock);
  Alcotest.(check (float 1e-6)) "idle includes retry idle" 2.1e6
    (Clock.idle ctx.Ctx.clock)

(* ---------------- Mirror failover ---------------- *)

let test_failover_to_lagging_mirror () =
  (* Permanent drop after tuple 2; budget of two attempts (3e5 and 4e5)
     fails, so the third timeout event (6e5) fails over.  The mirror lags
     one tuple: it re-streams position 1 (one 1e5 gap) before new data, so
     tuples 3..5 arrive at 8e5, 9e5, 1.0e6 — and exactly once each. *)
  let s =
    Source.create ~name:"r"
      ~faults:
        [ Source.Disconnect { after_tuples = 2; rejoin_after_s = None } ]
      ~mirrors:[ Source.mirror ~lag_tuples:1 () ]
      (mk_rel 5) (Source.Bandwidth 10.0)
  in
  let ctx, seen, _ = drain ~retry:(policy ~retries:2 ()) [ s ] in
  Alcotest.(check int) "all tuples delivered exactly once" 5
    (List.length seen);
  check_bag "no duplicates from the overlap"
    (Relation.to_list (mk_rel 5))
    seen;
  Alcotest.(check int) "two failed attempts" 2 (Adp_obs.Metrics.count ctx.Ctx.retries);
  Alcotest.(check int) "one failover" 1 (Adp_obs.Metrics.count ctx.Ctx.failovers);
  Alcotest.(check int) "overlap re-streamed" 1 (Source.redelivered s);
  Alcotest.(check (float 1e-6)) "completion time" 1e6 (Ctx.now ctx);
  Alcotest.(check bool) "source healthy on the mirror" true
    (Source.status s = Source.Up)

let test_all_mirrors_die () =
  (* The primary drops for good and the only mirror never answers: after
     both budgets are spent the source is Failed, the run completes, and
     only the prefix was delivered. *)
  let s =
    Source.create ~name:"r"
      ~faults:
        [ Source.Disconnect { after_tuples = 2; rejoin_after_s = None } ]
      ~mirrors:[ Source.mirror ~faults:[ Source.Dead_on_arrival ] () ]
      (mk_rel 5) (Source.Bandwidth 10.0)
  in
  let other = Source.create ~name:"o" (mk_rel 3) (Source.Bandwidth 10.0) in
  let ctx, seen, outcome = drain ~retry:(policy ~retries:2 ()) [ s; other ] in
  Alcotest.(check bool) "run completes" true (outcome = Driver.Exhausted);
  Alcotest.(check int) "partial delivery" (2 + 3) (List.length seen);
  Alcotest.(check bool) "source permanently failed" true
    (Source.status s = Source.Failed);
  Alcotest.(check int) "one failover attempted" 1 (Adp_obs.Metrics.count ctx.Ctx.failovers);
  Alcotest.(check int) "one source lost" 1 (Adp_obs.Metrics.count ctx.Ctx.sources_failed);
  Alcotest.(check bool) "other source unaffected" true
    (Source.exhausted other)

let test_no_timeout_policy_never_hangs () =
  (* Under the wait-forever policy a permanently dead source can never be
     detected; the driver must still terminate, leaving it behind. *)
  let s =
    Source.create ~name:"r"
      ~faults:
        [ Source.Disconnect { after_tuples = 1; rejoin_after_s = None } ]
      (mk_rel 4) Source.Local
  in
  let _, seen, outcome = drain ~retry:Retry.no_timeouts [ s ] in
  Alcotest.(check bool) "terminates" true (outcome = Driver.Exhausted);
  Alcotest.(check int) "prefix only" 1 (List.length seen)

(* ---------------- Full query: failover equals the fault-free run ----- *)

let scale = 0.004

let dataset =
  lazy (Tpch.generate { Tpch.scale; distribution = Tpch.Uniform; seed = 42 })

let q3a = lazy (Workload.query Workload.Q3A)

let faulty_sources ?(mirrors = [ Source.mirror ~lag_tuples:150 () ]) ds q () =
  let srcs = Workload.sources ~model:(Source.Bandwidth 100_000.0) ds q () in
  let lineitem = List.find (fun s -> Source.name s = "lineitem") srcs in
  Source.inject lineitem
    (Source.Disconnect { after_tuples = 300; rejoin_after_s = None });
  List.iter (Source.add_mirror lineitem) mirrors;
  srcs

let run_corrective ?mirrors () =
  let ds = Lazy.force dataset in
  let q = Lazy.force q3a in
  let catalog = Workload.catalog ~with_cardinalities:false ds q in
  let retry = policy ~timeout:0.02 ~retries:2 ~backoff:0.01 () in
  Strategy.run ~label:"faulty" ~retry
    (Strategy.Corrective
       { Corrective.default_config with
         Corrective.poll_interval = 2e4; min_leaf_seen = 50 })
    q catalog
    ~sources:(faulty_sources ?mirrors ds q)

let test_failover_query_matches_fault_free () =
  let ds = Lazy.force dataset in
  let q = Lazy.force q3a in
  let catalog = Workload.catalog ~with_cardinalities:false ds q in
  let clean =
    Strategy.reference q catalog
      ~sources:(Workload.sources ~model:Source.Local ds q)
  in
  let o = run_corrective () in
  Alcotest.(check bool) "failed over at least once" true
    (o.Strategy.report.Report.failovers >= 1);
  Alcotest.(check (float 1e-9)) "full coverage" 1.0
    o.Strategy.report.Report.coverage;
  check_approx_rel
    "mirror overlap deduplicated: result equals the fault-free answer"
    clean o.Strategy.result

let test_failover_query_deterministic () =
  let a = run_corrective () and b = run_corrective () in
  let render (o : Strategy.outcome) =
    (* wall_s is real processor time and legitimately varies. *)
    Format.asprintf "%a|%a" Report.pp_run
      { o.Strategy.report with Report.wall_s = 0.0 }
      (Relation.pp ~limit:max_int) o.Strategy.result
  in
  Alcotest.(check string) "byte-for-byte identical report and result"
    (render a) (render b)

let test_partial_results_without_mirror () =
  let o = run_corrective ~mirrors:[] () in
  let r = o.Strategy.report in
  Alcotest.(check bool) "coverage below 1" true (r.Report.coverage < 1.0);
  Alcotest.(check bool) "coverage above 0" true (r.Report.coverage > 0.0);
  Alcotest.(check int) "no failover possible" 0 r.Report.failovers;
  Alcotest.(check bool) "still produced rows" true (r.Report.result_card > 0)

(* A failover triggers a re-optimizer poll whatever the poll interval,
   but a static run never polls on its own schedule and so must never
   switch.  On Q10A a corrective poll at this failover does switch (to
   phase 2), so a static run that took it would need stitch-up; it stays
   in one phase and returns the fault-free answer. *)
let test_static_failover_keeps_one_phase () =
  let ds = Lazy.force dataset in
  let q = Workload.query Workload.Q10A in
  let catalog = Workload.catalog ~with_cardinalities:false ds q in
  let clean =
    Strategy.reference q catalog
      ~sources:(Workload.sources ~model:Source.Local ds q)
  in
  let sources () =
    let srcs = Workload.sources ~model:(Source.Bandwidth 100_000.0) ds q () in
    let orders = List.find (fun s -> Source.name s = "orders") srcs in
    Source.inject orders
      (Source.Disconnect { after_tuples = 300; rejoin_after_s = None });
    Source.add_mirror orders (Source.mirror ~lag_tuples:150 ());
    srcs
  in
  let o =
    Strategy.run ~label:"static-faulty"
      ~retry:(policy ~timeout:0.02 ~retries:2 ~backoff:0.01 ())
      Strategy.Static q catalog ~sources
  in
  let r = o.Strategy.report in
  Alcotest.(check int) "failed over" 1 r.Report.failovers;
  Alcotest.(check int) "one phase" 1 r.Report.phases;
  check_approx_rel "result equals the fault-free answer" clean
    o.Strategy.result

(* A flapping lineitem: each drop outlasts the first reconnect attempt,
   so every flap records one breaker failure.  The second trips the
   breaker (threshold 2) while retry budget remains, and the driver
   fails over to the lagging mirror on the trip rather than on retry
   exhaustion. *)
let test_breaker_trip_fails_over () =
  let ds = Lazy.force dataset in
  let q = Lazy.force q3a in
  let catalog = Workload.catalog ~with_cardinalities:false ds q in
  let sources () =
    let srcs = Workload.sources ~model:(Source.Bandwidth 100_000.0) ds q () in
    let lineitem = List.find (fun s -> Source.name s = "lineitem") srcs in
    List.iter
      (fun after_tuples ->
        Source.inject lineitem
          (Source.Disconnect { after_tuples; rejoin_after_s = Some 0.025 }))
      [ 300; 600 ];
    Source.add_mirror lineitem (Source.mirror ~lag_tuples:150 ());
    srcs
  in
  let max_retries = 5 in
  let trace = Trace.memory () in
  let o =
    Strategy.run ~label:"flapping" ~trace
      ~retry:(policy ~timeout:0.02 ~retries:max_retries ~backoff:0.01 ())
      (Strategy.Corrective
         { Corrective.default_config with
           Corrective.poll_interval = 2e4; min_leaf_seen = 50;
           breaker =
             Some
               { Breaker.window_s = 60.0; failure_threshold = 2;
                 cooldown_s = 1.0; probe_jitter = 0.0; seed = 5 } })
      q catalog ~sources
  in
  let r = o.Strategy.report in
  Alcotest.(check int) "one failover" 1 r.Report.failovers;
  Alcotest.(check bool) "retry budget not spent" true
    (r.Report.retries < max_retries);
  let rec after_trip = function
    | (_, Trace.Breaker_state_changed { source = "lineitem"; to_state = "open"; _ })
      :: rest ->
      List.exists
        (function
          | _, Trace.Failover { source = "lineitem"; ok = true } -> true
          | _ -> false)
        rest
    | _ :: rest -> after_trip rest
    | [] -> false
  in
  Alcotest.(check bool) "the trip is followed by a failover" true
    (after_trip (Trace.events trace));
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 r.Report.coverage;
  check_approx_rel "result equals the reference"
    (Strategy.reference q catalog
       ~sources:(Workload.sources ~model:Source.Local ds q))
    o.Strategy.result

(* ---------------- driver against its reference picker ---------------- *)

(* A random source landscape: per source its length, arrival model,
   faults and mirrors; then retry jitter, breakers, a deadline and a
   poll that may stall a source (a poll callback may change any source)
   and now and then stops the run. *)
type src_spec = {
  len : int;
  model : Source.model;
  faults : Source.fault list;
  mirrors : (int * Source.model * Source.fault list) list;
}

let gen_landscape =
  let open QCheck2.Gen in
  let model =
    oneof
      [ return Source.Local;
        map (fun r -> Source.Bandwidth (float_of_int r)) (int_range 5 200);
        map2
          (fun burst gap ->
            Source.Bursty
              { rate = 100.0; mean_burst = burst;
                mean_gap = float_of_int gap /. 10.0 })
          (int_range 1 8) (int_range 1 10) ]
  in
  let fault =
    oneof
      [ map2
          (fun at d ->
            Source.Stall
              { after_tuples = at; duration_s = float_of_int d /. 10.0 })
          (int_bound 20) (int_range 1 10);
        map2
          (fun at rejoin ->
            Source.Disconnect
              { after_tuples = at;
                rejoin_after_s =
                  Option.map (fun r -> float_of_int r /. 10.0) rejoin })
          (int_bound 20) (opt (int_range 1 30));
        return Source.Dead_on_arrival ]
  in
  let faults = list_size (int_bound 2) fault in
  let src =
    map4
      (fun len model faults mirrors -> { len; model; faults; mirrors })
      (int_bound 40) model faults
      (list_size (int_bound 2) (triple (int_bound 5) model faults))
  in
  let breaker =
    opt
      (map3
         (fun threshold cooldown seed ->
           { Breaker.window_s = 60.0; failure_threshold = threshold;
             cooldown_s = float_of_int cooldown /. 10.0; probe_jitter = 0.2;
             seed })
         (int_range 1 3) (int_range 1 20) (int_bound 100))
  in
  tup5 (list_size (int_range 1 4) src) breaker (opt (int_range 1 80))
    (opt (triple (int_range 1 50) (int_bound 6) bool))
    (pair (int_range 1 5) (int_bound 3))

type driver_run =
  Ctx.t ->
  sources:Source.t list ->
  consume:(Source.t -> Tuple.t -> unit) ->
  ?poll:float * (unit -> [ `Continue | `Switch | `Stop ]) ->
  ?retry:Retry.policy ->
  ?deadline:float ->
  ?breakers:Breaker.t array ->
  unit ->
  Driver.outcome

(* Every delivery (source, tuple, clock), poll and outcome of one run. *)
let drive (run : driver_run)
    (srcs, breaker, deadline, poll, (timeout, retries)) =
  let sources =
    List.mapi
      (fun i sp ->
        Source.create ~seed:i ~name:(Printf.sprintf "s%d" i)
          ~faults:sp.faults
          ~mirrors:
            (List.map
               (fun (lag, model, faults) ->
                 Source.mirror ~model ~lag_tuples:lag ~faults ())
               sp.mirrors)
          (mk_rel sp.len) sp.model)
      srcs
  in
  let ctx = Ctx.create () in
  let log = ref [] in
  let consume s t = log := `Took (Source.name s, t, Ctx.now ctx) :: !log in
  let polls = ref 0 in
  let poll =
    Option.map
      (fun (iv, stop_after, stalls) ->
        ( float_of_int iv *. 1e4,
          fun () ->
            incr polls;
            log := `Poll (Ctx.now ctx) :: !log;
            (if stalls then
               let s = List.nth sources (!polls mod List.length sources) in
               Source.inject s
                 (Source.Stall
                    { after_tuples = Source.consumed s; duration_s = 0.05 }));
            if stop_after > 0 && !polls >= stop_after * 3 then `Stop
            else `Continue ))
      poll
  in
  let retry =
    { Retry.default_policy with
      Retry.timeout_s = float_of_int timeout /. 10.0; max_retries = retries;
      backoff_initial_s = 0.1; jitter = 0.3 }
  in
  let breakers =
    Option.map
      (fun p ->
        Array.of_list (List.mapi (fun i _ -> Breaker.create ~salt:i p) srcs))
      breaker
  in
  let deadline = Option.map (fun d -> float_of_int d *. 1e5) deadline in
  let outcome = run ctx ~sources ~consume ?poll ~retry ?deadline ?breakers () in
  ( outcome, List.rev !log, Ctx.now ctx,
    Adp_obs.Metrics.count ctx.Ctx.retries,
    Adp_obs.Metrics.count ctx.Ctx.failovers,
    Adp_obs.Metrics.count ctx.Ctx.sources_failed )

(* A driver that stops making progress (say, one that keeps a delivery
   after taking it) loops without consuming or polling.  [within] turns
   such a hang into an exception, so the case fails and is printed; a
   case here runs in well under a millisecond. *)
exception Hung

let within secs f =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Hung)) in
  let arm s =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = s })
  in
  arm secs;
  Fun.protect f ~finally:(fun () ->
      arm 0.0;
      Sys.set_signal Sys.sigalrm old)

let driver_matches_reference =
  QCheck2.Test.make ~name:"driver delivers as its reference picker" ~count:1000
    ~long_factor:10 gen_landscape
    (fun l ->
      within 2.0 (fun () -> drive Driver.run l = drive Driver_reference.run l))

let suite =
  [ Alcotest.test_case "retry schedule" `Quick test_retry_schedule;
    Alcotest.test_case "backoff jitter deterministic" `Quick
      test_backoff_jitter_deterministic;
    Alcotest.test_case "stall is transient" `Quick test_stall_is_transient;
    Alcotest.test_case "disconnect/rejoin backoff" `Quick
      test_disconnect_rejoin_backoff;
    Alcotest.test_case "failover to lagging mirror" `Quick
      test_failover_to_lagging_mirror;
    Alcotest.test_case "all mirrors die" `Quick test_all_mirrors_die;
    Alcotest.test_case "no-timeout policy terminates" `Quick
      test_no_timeout_policy_never_hangs;
    Alcotest.test_case "failover query = fault-free" `Quick
      test_failover_query_matches_fault_free;
    Alcotest.test_case "failover query deterministic" `Quick
      test_failover_query_deterministic;
    Alcotest.test_case "partial results without mirror" `Quick
      test_partial_results_without_mirror;
    Alcotest.test_case "breaker trip fails over" `Quick
      test_breaker_trip_fails_over;
    Alcotest.test_case "static failover keeps one phase" `Quick
      test_static_failover_keeps_one_phase;
    qtest driver_matches_reference ]
