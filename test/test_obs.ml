(* Observability layer: JSON codec, trace event serialization roundtrips,
   the metrics registry and its Prometheus dump, the explain replay,
   per-event-class coverage of the engine's instrumentation hooks, and
   the headline invariant — a
   traced run and an untraced run are virtual-time identical and produce
   the same answer, including across a kill-and-resume. *)

open Adp_relation
open Adp_exec
open Adp_datagen
open Adp_optimizer
open Adp_core
open Adp_query
open Helpers
module Json = Adp_obs.Json
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Profile = Adp_obs.Profile
module Calibrate = Adp_obs.Calibrate
module Checkpoint = Adp_recovery.Checkpoint
module Crash = Adp_recovery.Crash
module Wallclock = Adp_obs.Wallclock
module Bjson = Adp_obs.Bjson
module Benchdiff = Adp_obs.Benchdiff

(* Naive substring search (the test image has no [str] dependency). *)
let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  n = 0
  ||
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---------------- JSON codec ---------------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [ ("a", Json.Num 1.0); ("b", Json.Str "x \"quoted\" \n tab\t");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Num (-2.5) ]);
        ("d", Json.Obj [ ("nested", Json.Num 1e-3) ]);
        ("unicode", Json.Str "σ ⋈ γ") ]
  in
  (match Json.parse (Json.to_string j) with
   | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
   | Error e -> Alcotest.fail e);
  (* Floats round-trip exactly through the shortest representation. *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') ->
        Alcotest.(check bool) (string_of_float f) true (f = f')
      | _ -> Alcotest.fail "float did not parse back")
    [ 0.1; 1.0 /. 3.0; 1e300; -0.0; 12345.625; Float.min_float ];
  (match Json.parse "{broken" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage accepted")

let test_json_edge_cases () =
  let roundtrip j =
    match Json.parse (Json.to_string j) with
    | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
    | Error e -> Alcotest.fail e
  in
  (* Control characters escape as \u00XX and come back byte-identical;
     quotes, backslashes and multi-byte UTF-8 survive untouched. *)
  roundtrip (Json.Str "\x00\x01\x1f \b \012 \\ \" / σ⋈γ €");
  Alcotest.(check string) "control chars escaped"
    "\"\\u0000\\u0001\\u001f\""
    (Json.to_string (Json.Str "\x00\x01\x1f"));
  (* Foreign \u escapes decode to UTF-8 across the one/two/three-byte
     ranges. *)
  (match Json.parse "\"\\u0041 \\u00e9 \\u20ac\"" with
   | Ok (Json.Str s) ->
     Alcotest.(check string) "\\u decodes to UTF-8" "A \xc3\xa9 \xe2\x82\xac" s
   | Ok _ | Error _ -> Alcotest.fail "\\u escape did not parse");
  (match Json.parse "\"\\u00zz\"" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad \\u escape accepted");
  (* Deep nesting: a 200-level list-in-object tower round-trips. *)
  let deep =
    let rec tower n acc =
      if n = 0 then acc
      else tower (n - 1) (Json.Obj [ ("v", Json.List [ acc ]) ])
    in
    tower 200 (Json.Num 1.0)
  in
  roundtrip deep;
  (* Exotic floats round-trip through the shortest-form printer. *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') ->
        Alcotest.(check bool) (string_of_float f) true
          (f = f' || (Float.is_integer f && Float.abs f' = Float.abs f))
      | _ -> Alcotest.fail "float did not parse back")
    [ Float.max_float; Float.min_float; 4.9e-324 (* smallest denormal *);
      -0.0; 0.1 +. 0.2; 1.0 /. 3.0; Float.pi; 1e15 -. 1.0; -1e300;
      123456789.123456789 ];
  (* JSON has no non-finite numbers: they print as null by design. *)
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite prints null" "null"
        (Json.to_string (Json.Num f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* One event of every class, with distinctive values. *)
let one_of_each : Trace.stamped list =
  [ 0.0, Trace.Phase_opened { id = 0; plan = "(a ⋈ b)" };
    1.5, Trace.Reopt_poll
           { phase = 0; est_cost = 100.25; best_cost = 90.5;
             best_plan = "(b ⋈ a)"; switch_cost = 5.125;
             remaining_fraction = 0.75;
             observed_sel = [ "sig1", 0.5; "sig2", 1e-4 ];
             decision = Trace.Switch };
    2.0, Trace.Plan_switch
           { from_plan = "(a ⋈ b)"; to_plan = "(b ⋈ a)"; reason = "cheaper" };
    3.0, Trace.Comp_join_route { side = "L"; routed_to = "hash"; routed = 42 };
    4.0, Trace.Agg_window_resize
           { node = "γ[g]"; from_window = 64; to_window = 32; reduction = 0.9 };
    5.0, Trace.Retry { source = "r"; attempt = 2; ok = false;
                       next_attempt_s = 1.25 };
    6.0, Trace.Failover { source = "r"; ok = true };
    7.0, Trace.Checkpoint_written { seq = 3; path = "ckpt/3.adpck"; bytes = 512 };
    8.0, Trace.Checkpoint_resumed { seq = 3; path = "ckpt/3.adpck"; phases = 2 };
    9.0, Trace.Stitchup_begin { phases = 2; combos = 6 };
    10.0, Trace.Stitchup_end { output = 7; reused = 3; recomputed = 4 };
    11.0, Trace.Page_out { node = "⋈[a.k=b.k]" };
    12.0, Trace.Phase_closed { id = 0; read = 1000; emitted = 250 };
    13.0, Trace.Node_profile
            { phase = "phase 0"; node = "(a ⋈ b)"; depth = 1;
              self_us = 123.5; tuples_in = 10; tuples_out = 4; probes = 10;
              builds = 9; mem_hw = 7 };
    14.0, Trace.Calibration
            { phase = "stitch-up"; point = "stitch-up"; node = "σ[x](a)";
              est = 20000.0; actual = 25.0; q_error = 800.0; blame = true };
    15.0, Trace.Worker_spawned { worker = 3 };
    16.0, Trace.Worker_died
            { worker = 3; query = "q7"; last_heartbeat_s = 15.875 };
    17.0, Trace.Worker_reclaimed
            { worker = 3; query = "q7"; attempt = 2;
              resume_from = "ckpt/q7" };
    18.0, Trace.Poll_interval_changed
            { from_s = 0.5; to_s = 0.75; found = 0 };
    19.0, Trace.Admission
            { query = "q9"; accepted = false; queue_depth = 16;
              reason = "queue-full" } ]

let test_event_jsonl_roundtrip () =
  (* Through the in-memory codec... *)
  List.iter
    (fun ev ->
      match Trace.of_json (Trace.to_json ev) with
      | Ok ev' -> Alcotest.(check bool) "event roundtrip" true (ev = ev')
      | Error e -> Alcotest.fail e)
    one_of_each;
  (* ...and through an actual file sink, the way `query --trace` writes. *)
  let path = "obs-roundtrip.jsonl" in
  let t = Trace.file path in
  Alcotest.(check bool) "file sink enabled" true (Trace.enabled t);
  Alcotest.(check bool) "null sink disabled" false (Trace.enabled Trace.null);
  List.iter (fun (at, ev) -> Trace.emit t ~at ev) one_of_each;
  Trace.close t;
  Trace.close t (* idempotent *);
  (match Trace.read_jsonl path with
   | Ok evs ->
     Alcotest.(check bool) "file roundtrip preserves every event" true
       (evs = one_of_each)
   | Error e -> Alcotest.fail e);
  Sys.remove path;
  match Trace.read_jsonl path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

(* ---------------- metrics registry ---------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"tuples" "adp_test_total" in
  let c_labelled =
    Metrics.counter m ~labels:[ "node", "a \"⋈\" b\n" ] "adp_node_test_total"
  in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter counts" 42 (Metrics.count c);
  (* Registration is idempotent per (name, labels): the same cell. *)
  Metrics.incr (Metrics.counter m "adp_test_total");
  Alcotest.(check int) "same cell" 43 (Metrics.count c);
  Metrics.add c_labelled 7;
  Alcotest.(check int) "labelled cell distinct" 7 (Metrics.count c_labelled);
  Alcotest.(check int) "counter_total sums label sets" 7
    (Metrics.counter_total m "adp_node_test_total");
  (* Prometheus text exposition. *)
  let prom = Metrics.to_prometheus m in
  let has s =
    Alcotest.(check bool) ("prometheus has " ^ s) true
      (contains ~needle:s prom)
  in
  has "# TYPE adp_test_total counter";
  has "adp_test_total 43";
  (* Label values are escaped. *)
  has "adp_node_test_total{node=\"a \\\"⋈\\\" b\\n\"} 7";
  (* Families are dumped sorted by name. *)
  let families =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "# TYPE %s counter" Fun.id)
      (String.split_on_char '\n' prom)
  in
  Alcotest.(check (list string)) "dump sorted by name"
    [ "adp_node_test_total"; "adp_test_total" ] families

(* Label scopes: the multi-query regression.  Two views of one store
   scoped by different label sets must never collide on same-named
   cells, and pruning a scope retires its cells without unbounded
   accumulation across repeated scope lifetimes. *)
let test_metrics_label_scopes () =
  let m = Metrics.create () in
  let q1 = Metrics.with_labels m [ "query", "q1" ] in
  let q2 = Metrics.with_labels m [ "query", "q2" ] in
  let c0 = Metrics.counter m ~help:"tuples" "adp_scope_total" in
  let c1 = Metrics.counter q1 ~help:"tuples" "adp_scope_total" in
  let c2 = Metrics.counter q2 ~help:"tuples" "adp_scope_total" in
  Metrics.add c0 1;
  Metrics.add c1 10;
  Metrics.add c2 100;
  (* Three distinct cells: the scopes did not clobber each other. *)
  Alcotest.(check int) "root cell" 1 (Metrics.count c0);
  Alcotest.(check int) "q1 cell" 10 (Metrics.count c1);
  Alcotest.(check int) "q2 cell" 100 (Metrics.count c2);
  Alcotest.(check int) "three cells registered" 3 (Metrics.cells m);
  (* Scopes compose: extra labels nest under the scope. *)
  let c1n = Metrics.counter q1 ~labels:[ "node", "j" ] "adp_scope_total" in
  Metrics.add c1n 7;
  let prom = Metrics.to_prometheus m in
  Alcotest.(check bool) "scoped labels rendered" true
    (contains ~needle:"adp_scope_total{query=\"q1\",node=\"j\"} 7" prom);
  (* Re-registration through the same scope returns the same cell. *)
  Metrics.incr (Metrics.counter q1 "adp_scope_total");
  Alcotest.(check int) "same scoped cell" 11 (Metrics.count c1);
  (* A cell count seen through any view is the whole store's. *)
  Alcotest.(check int) "views share the store" (Metrics.cells m)
    (Metrics.cells q1);
  (* Pruning q1 retires exactly q1's cells (including nested labels);
     the root and q2 cells survive. *)
  Metrics.prune q1;
  Alcotest.(check int) "q1 cells dropped" 2 (Metrics.cells m);
  Alcotest.(check int) "root survives" 1
    (Metrics.count (Metrics.counter m "adp_scope_total"));
  Alcotest.(check int) "q2 survives" 100
    (Metrics.count (Metrics.counter q2 "adp_scope_total"));
  (* Boundedness: a re-run query that registers and is pruned each
     attempt leaves the store no bigger than a single attempt would. *)
  for attempt = 1 to 50 do
    Metrics.prune q1;
    let c = Metrics.counter q1 "adp_scope_total" in
    Metrics.add c attempt
  done;
  Alcotest.(check int) "store stays bounded across attempts" 3
    (Metrics.cells m);
  Alcotest.(check int) "last attempt's value wins" 50
    (Metrics.count (Metrics.counter q1 "adp_scope_total"));
  (* Pruning the root scope (empty label set) clears everything. *)
  Metrics.prune m;
  Alcotest.(check int) "root prune clears the store" 0 (Metrics.cells m)

(* The server scopes each query's cells in a per-query view and prunes it
   when an attempt is discarded: many views leave no cell behind. *)
let test_with_labels_no_leaks () =
  let m = Metrics.create () in
  let keep = Metrics.counter m ~help:"polls" "adp_polls_total" in
  Metrics.incr keep;
  let base = Metrics.cells m in
  (* Many concurrent per-query views writing scoped cells... *)
  let views =
    List.init 50 (fun i ->
        let qid = Printf.sprintf "q%02d" i in
        let v = Metrics.with_labels m [ ("query", qid) ] in
        let c = Metrics.counter v ~help:"rows" "adp_rows_total" in
        Metrics.add c i;
        v)
  in
  Alcotest.(check int) "scoped cells live" (base + 50) (Metrics.cells m);
  (* Re-registration under the same view is idempotent, not a new cell. *)
  let v0 = List.hd views in
  ignore (Metrics.counter v0 ~help:"rows" "adp_rows_total");
  Alcotest.(check int) "idempotent" (base + 50) (Metrics.cells m);
  (* ...and pruning every view retires exactly the scoped cells. *)
  List.iter Metrics.prune views;
  Alcotest.(check int) "no leaked labels" base (Metrics.cells m);
  Alcotest.(check bool) "no query label survives" false
    (contains ~needle:"query=" (Metrics.to_prometheus m));
  (* The unscoped cell is untouched. *)
  Alcotest.(check int) "root cell kept" 1 (Metrics.count keep)

(* A minimal scrape validator: every sample line's family must have been
   introduced by exactly one HELP and one TYPE line, all samples of a
   family must be contiguous, and no family may repeat. *)
let validate_prometheus text =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let seen = Hashtbl.create 16 in
  let current = ref None in
  let family_of_sample line =
    let name_end =
      match (String.index_opt line '{', String.index_opt line ' ') with
      | Some i, Some j -> min i j
      | Some i, None -> i
      | None, Some j -> j
      | None, None -> String.length line
    in
    String.sub line 0 name_end
  in
  List.iter
    (fun line ->
      if String.length line > 7 && String.sub line 0 7 = "# HELP " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        let fam = String.sub rest 0 (String.index rest ' ') in
        if Hashtbl.mem seen fam then
          Alcotest.failf "family %s introduced twice" fam;
        Hashtbl.replace seen fam `Help;
        current := Some fam
      end
      else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        (match String.split_on_char ' ' rest with
         | fam :: _ :: _ ->
           (match Hashtbl.find_opt seen fam with
            | Some `Help -> Hashtbl.replace seen fam `Typed
            | _ -> Alcotest.failf "TYPE for %s without preceding HELP" fam);
           if !current <> Some fam then
             Alcotest.failf "TYPE for %s interleaves another family" fam
         | _ -> Alcotest.failf "malformed TYPE line: %s" line)
      end
      else begin
        let fam = family_of_sample line in
        (match Hashtbl.find_opt seen fam with
         | Some `Typed -> ()
         | _ -> Alcotest.failf "sample for %s before its HELP/TYPE" fam);
        if !current <> Some fam then
          Alcotest.failf "samples of %s not contiguous" fam
      end)
    lines

let test_prometheus_families () =
  let m = Metrics.create () in
  ignore (Metrics.counter m ~help:"polls" "adp_polls_total");
  let nohelp = Metrics.counter m ~help:"" "adp_bare_total" in
  Metrics.incr nohelp;
  let v1 = Metrics.with_labels m [ ("query", "q1") ] in
  let v2 = Metrics.with_labels m [ ("query", "q2") ] in
  List.iter
    (fun v -> Metrics.incr (Metrics.counter v ~help:"rows" "adp_rows_total"))
    [ v1; v2 ];
  let text = Metrics.to_prometheus m in
  validate_prometheus text;
  (* Every family appears with both headers, including those whose
     label sets were registered through two views. *)
  List.iter
    (fun fam ->
      let has prefix =
        List.exists
          (fun l ->
            String.length l >= String.length prefix
            && String.sub l 0 (String.length prefix) = prefix)
          (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) ("HELP " ^ fam) true (has ("# HELP " ^ fam ^ " "));
      Alcotest.(check bool) ("TYPE " ^ fam) true (has ("# TYPE " ^ fam ^ " ")))
    [ "adp_polls_total"; "adp_bare_total"; "adp_rows_total" ];
  (* The empty help string falls back to the family name, never an
     empty HELP line. *)
  Alcotest.(check bool) "synthesized help" true
    (List.exists
       (fun l -> l = "# HELP adp_bare_total adp_bare_total")
       (String.split_on_char '\n' text))

(* ---------------- traced = untraced (the headline invariant) ------- *)

let q3a_dataset =
  Tpch.generate { Tpch.scale = 0.004; distribution = Tpch.Uniform; seed = 3 }

(* A mis-costed CQP workload: pessimal initial plan over Q3A, windowed
   pre-aggregation, a tight poll — guaranteed to switch (same setup as the
   strategies suite). *)
let run_q3a ?trace ?metrics ?profile ?calibrate ?wall () =
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog ~with_cardinalities:true q3a_dataset q in
  let sources () = Workload.sources q3a_dataset q () in
  let sels = Adp_stats.Selectivity.create () in
  let bad = (Optimizer.pessimal q catalog sels).Optimizer.spec in
  let cfg =
    { Corrective.default_config with
      poll_interval = 5e3; switch_threshold = 0.95; min_leaf_seen = 100;
      calibrate }
  in
  Strategy.run ~preagg:Optimizer.Auto ~label:"obs" ~initial_plan:bad
    ?trace ?metrics ?profile ?wall (Strategy.Corrective cfg) q catalog
    ~sources

let normalize r = { r with Report.wall_s = 0.0 }

let check_same_report msg (a : Report.run) (b : Report.run) =
  (* wall_s is real elapsed time; everything else must be bit-identical. *)
  Alcotest.(check bool) msg true (normalize a = normalize b)

let test_tracing_is_free () =
  let plain = run_q3a () in
  let trace = Trace.memory () in
  let metrics = Metrics.create () in
  let traced = run_q3a ~trace ~metrics () in
  check_same_report "traced report = untraced report" plain.Strategy.report
    traced.Strategy.report;
  check_bag "traced result = untraced result"
    (Relation.to_list plain.Strategy.result)
    (Relation.to_list traced.Strategy.result);
  (* The trace actually recorded the adaptation... *)
  let evs = Trace.events trace in
  Alcotest.(check bool) "trace non-empty" true (evs <> []);
  Alcotest.(check bool) "records the plan switch" true
    (List.exists
       (function _, Trace.Plan_switch _ -> true | _ -> false)
       evs);
  (* ...with timestamps that never exceed the run's own virtual clock,
     in non-decreasing order. *)
  let times = List.map fst evs in
  Alcotest.(check bool) "timestamps monotone" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length times - 1) times)
       (List.tl times));
  Alcotest.(check bool) "timestamps within the run" true
    (List.for_all
       (fun t -> t >= 0.0 && t <= plain.Strategy.report.Report.time_s *. 1e6)
       times);
  (* Metrics agree with the report where both count the same thing. *)
  Alcotest.(check int) "result tuples counted" 0
    (Metrics.count (Metrics.counter metrics "adp_retries_total"))

(* Every adaptive decision class is exercised and emits its typed event. *)
let count_events trace pred =
  List.length (List.filter (fun (_, ev) -> pred ev) (Trace.events trace))

let test_cqp_event_classes () =
  let trace = Trace.memory () in
  let o = run_q3a ~trace () in
  let stats =
    match o.Strategy.corrective_stats with
    | Some s -> s
    | None -> Alcotest.fail "expected corrective stats"
  in
  Alcotest.(check bool) "plan actually switched" true
    (stats.Corrective.phases >= 2);
  let count p = count_events trace p in
  Alcotest.(check int) "one open per phase" stats.Corrective.phases
    (count (function Trace.Phase_opened _ -> true | _ -> false));
  Alcotest.(check int) "one close per phase" stats.Corrective.phases
    (count (function Trace.Phase_closed _ -> true | _ -> false));
  Alcotest.(check int) "one switch per extra phase"
    (stats.Corrective.phases - 1)
    (count (function Trace.Plan_switch _ -> true | _ -> false));
  Alcotest.(check bool) "polls recorded" true
    (count (function Trace.Reopt_poll _ -> true | _ -> false) > 0);
  (* Each switch is backed by a poll that decided Switch, with evidence. *)
  let switch_polls =
    List.filter
      (function
        | _, Trace.Reopt_poll { decision = Trace.Switch; _ } -> true
        | _ -> false)
      (Trace.events trace)
  in
  Alcotest.(check int) "switch decisions = switches"
    (stats.Corrective.phases - 1)
    (List.length switch_polls);
  List.iter
    (function
      | _, Trace.Reopt_poll { observed_sel; est_cost; best_cost; _ } ->
        Alcotest.(check bool) "poll carries evidence" true (observed_sel <> []);
        Alcotest.(check bool) "switch was justified" true
          (best_cost < est_cost)
      | _ -> ())
    switch_polls;
  (* Multi-phase run: the stitch-up brackets are present and paired. *)
  Alcotest.(check int) "stitchup begin" 1
    (count (function Trace.Stitchup_begin _ -> true | _ -> false));
  Alcotest.(check int) "stitchup end" 1
    (count (function Trace.Stitchup_end _ -> true | _ -> false));
  (* Phase_closed totals account for every source tuple exactly once. *)
  let closed_read =
    List.fold_left
      (fun acc -> function
        | _, Trace.Phase_closed { read; _ } -> acc + read
        | _ -> acc)
      0 (Trace.events trace)
  in
  let log_read =
    List.fold_left
      (fun acc (p : Corrective.phase_info) -> acc + p.Corrective.read)
      0 stats.Corrective.phase_log
  in
  Alcotest.(check int) "phase_closed read totals match the log" log_read
    closed_read

let mk_rel n = rel [ "t.k"; "t.p" ] (List.init n (fun i -> [ vi i; vi 0 ]))

let retry_policy =
  { Retry.default_policy with
    Retry.timeout_s = 0.2; max_retries = 2; backoff_initial_s = 0.1;
    backoff_multiplier = 2.0; jitter = 0.0 }

let test_fault_events () =
  (* Permanent disconnect with a lagging mirror: two failed reconnect
     attempts, then a successful failover (test_faults' scenario). *)
  let s =
    Source.create ~name:"r"
      ~faults:
        [ Source.Disconnect { after_tuples = 2; rejoin_after_s = None } ]
      ~mirrors:[ Source.mirror ~lag_tuples:1 () ]
      (mk_rel 5) (Source.Bandwidth 10.0)
  in
  let trace = Trace.memory () in
  let ctx =
    Ctx.create ~costs:{ Cost_model.default with Cost_model.reconnect = 0.0 }
      ~trace ()
  in
  let consume _ _ = () in
  (match Driver.run ctx ~sources:[ s ] ~consume ~retry:retry_policy () with
   | Driver.Exhausted -> ()
   | Driver.Switched | Driver.Stopped -> Alcotest.fail "unexpected switch");
  let retries =
    List.filter_map
      (function
        | _, Trace.Retry { source; attempt; ok; next_attempt_s } ->
          Some (source, attempt, ok, next_attempt_s)
        | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check int) "both failed attempts traced" 2 (List.length retries);
  List.iter
    (fun (source, _, ok, next_attempt_s) ->
      Alcotest.(check string) "retry names the source" "r" source;
      Alcotest.(check bool) "reconnects failed" false ok;
      Alcotest.(check bool) "next attempt scheduled" true
        (next_attempt_s > 0.0))
    retries;
  Alcotest.(check int) "failover traced" 1
    (count_events trace
       (function Trace.Failover { ok = true; _ } -> true | _ -> false));
  (* Attempt numbers are 1, 2. *)
  Alcotest.(check (list int)) "attempts numbered" [ 1; 2 ]
    (List.map (fun (_, attempt, _, _) -> attempt) retries)

let test_page_out_events () =
  (* Memory pressure under a pinned plan: Page_out events mirror the
     report's paged_out counter. *)
  let q = Workload.query Workload.Q3A in
  let ds =
    Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Uniform; seed = 42 }
  in
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  let sources () = Workload.sources ds q () in
  let trace = Trace.memory () in
  let cfg =
    { Corrective.default_config with
      poll_interval = 2e3; switch_threshold = 0.0; memory_budget = Some 200 }
  in
  let o =
    Strategy.run ~label:"mem" ~trace (Strategy.Corrective cfg) q catalog
      ~sources
  in
  let pages =
    count_events trace (function Trace.Page_out _ -> true | _ -> false)
  in
  Alcotest.(check bool) "memory pressure paged out" true (pages > 0);
  Alcotest.(check int) "events mirror the report counter"
    o.Strategy.report.Report.paged_out pages

let test_window_resize_events () =
  (* All-distinct groups shrink the pre-aggregation window (64 -> ... -> 1):
     every resize is traced with the observed reduction. *)
  let schema_of = function
    | "d" -> Schema.make [ "d.g"; "d.v" ]
    | name -> Alcotest.fail ("unknown relation " ^ name)
  in
  let trace = Trace.memory () in
  let ctx = Ctx.create ~trace () in
  let spec =
    Plan.preagg
      ~mode:(Plan.Windowed { initial = 64; max_window = 1024 })
      ~group_cols:[ "d.g" ]
      ~aggs:[ Aggregate.sum ~name:"s" (Expr.col "d.v") ]
      (Plan.scan "d")
  in
  let plan = instantiate ctx spec ~schema_of in
  let tuples = List.init 300 (fun i -> [| vi i; vi i |]) in
  let _ =
    List.concat_map (fun t -> Plan.push plan ~source:"d" t) tuples
    @ Plan.flush plan
  in
  let resizes =
    List.filter_map
      (function
        | _, Trace.Agg_window_resize { from_window; to_window; reduction; _ } ->
          Some (from_window, to_window, reduction)
        | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check bool) "window resizes traced" true (resizes <> []);
  List.iter
    (fun (from_window, to_window, reduction) ->
      Alcotest.(check bool) "shrinking" true (to_window < from_window);
      Alcotest.(check bool) "useless preagg observed" true (reduction > 0.5))
    resizes;
  (* The final resize lands on the pass-through window of 1. *)
  match List.rev resizes with
  | (_, to_window, _) :: _ ->
    Alcotest.(check int) "shrank to pass-through" 1 to_window
  | [] -> ()

let test_comp_join_route_events () =
  (* A poisoned early high key flips the router from merge to hash. *)
  let lsch = keyed_schema "l" and rsch = keyed_schema "r" in
  let trace = Trace.memory () in
  let ctx = Ctx.create ~trace () in
  let cj =
    Comp_join.create ctx ~variant:Comp_join.Naive ~left_schema:lsch
      ~right_schema:rsch ~left_key:[ "l.k" ] ~right_key:[ "r.k" ]
  in
  let sorted n = List.init n (fun i -> [| vi i; vi 0 |]) in
  List.iter
    (fun t -> ignore (Comp_join.insert cj Comp_join.L t))
    ([| vi 1000; vi 0 |] :: sorted 50);
  List.iter (fun t -> ignore (Comp_join.insert cj Comp_join.R t)) (sorted 50);
  ignore (Comp_join.finish cj);
  let flips =
    List.filter_map
      (function
        | _, Trace.Comp_join_route { side; routed_to; _ } ->
          Some (side, routed_to)
        | _ -> None)
      (Trace.events trace)
  in
  (* L: poison tuple routes to merge, the rest to hash = 2 decisions;
     R: everything merges = 1 decision.  Only changes are traced. *)
  Alcotest.(check bool) "routing flips traced" true
    (List.mem ("L", "hash") flips);
  Alcotest.(check bool) "steady routing is silent" true (List.length flips <= 4)

(* ---------------- profiler and calibration ---------------- *)

let test_profile_spans () =
  let p = Profile.create () in
  let root = Profile.span p ~depth:0 "root" in
  let child = Profile.span p ~depth:1 "child" in
  Profile.add_time root 10.0;
  Profile.add_time child 5.0;
  Profile.add_in child 3;
  Profile.add_out child 2;
  Profile.add_probes child 3;
  Profile.add_builds child 1;
  Profile.note_mem child 7;
  Profile.note_mem child 4 (* high-water only rises *);
  (* Idempotent per (phase, node): same span, accumulates. *)
  Profile.add_time (Profile.span p "root") 2.0;
  (* A new phase opens fresh spans for the same node names. *)
  Profile.set_phase p "phase 1";
  Profile.add_time (Profile.span p ~depth:0 "root") 1.0;
  let infos = Profile.spans p in
  Alcotest.(check int) "three spans" 3 (List.length infos);
  let find ph node =
    List.find
      (fun (i : Profile.info) -> i.Profile.phase = ph && i.Profile.node = node)
      infos
  in
  Alcotest.(check (float 1e-9)) "root self accumulates" 12.0
    (find "phase 0" "root").Profile.self_us;
  let c = find "phase 0" "child" in
  Alcotest.(check int) "tuples in" 3 c.Profile.tuples_in;
  Alcotest.(check int) "mem high-water kept" 7 c.Profile.mem_hw;
  Alcotest.(check (float 1e-9)) "new phase span distinct" 1.0
    (find "phase 1" "root").Profile.self_us;
  (* Cumulative time of a pre-order listing: parent + deeper run. *)
  let phase0 =
    List.filter (fun (i : Profile.info) -> i.Profile.phase = "phase 0") infos
  in
  Alcotest.(check (float 1e-9)) "cumulative = self + subtree" 17.0
    (Profile.cumulative_us phase0 0);
  Alcotest.(check (float 1e-9)) "leaf cumulative = self" 5.0
    (Profile.cumulative_us phase0 1);
  (* Totals aggregate the same node across phases. *)
  let totals = Profile.totals p in
  let root_total =
    List.find (fun (i : Profile.info) -> i.Profile.node = "root") totals
  in
  Alcotest.(check (float 1e-9)) "totals sum phases" 13.0
    root_total.Profile.self_us;
  Alcotest.(check string) "totals phase is *" "*" root_total.Profile.phase;
  (* The rendering includes every span. *)
  let out = Format.asprintf "%a" (Profile.render ?annot:None) p in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("render has " ^ s) true (contains ~needle:s out))
    [ "phase 0:"; "phase 1:"; "root"; "child" ];
  (* A bucket registered between a span and its late child is never a
     parent, and does not cut the span's subtree short. *)
  Profile.set_phase p "stitch-up";
  Profile.add_time (Profile.span p "top") 1.0;
  Profile.add_time (Profile.bucket p "(unattributed)") 4.0;
  Profile.add_time (Profile.span p ~depth:1 "late") 2.0;
  let stitch =
    List.filter
      (fun (i : Profile.info) -> i.Profile.phase = "stitch-up")
      (Profile.spans p)
  in
  Alcotest.(check (float 1e-9)) "subtree spans the bucket" 3.0
    (Profile.cumulative_us stitch 0);
  Alcotest.(check (float 1e-9)) "bucket subtree is itself" 4.0
    (Profile.cumulative_us stitch 1);
  Alcotest.(check bool) "late child's parent is the span" true
    ((List.nth stitch 2).Profile.parent = Some (List.hd stitch).Profile.order)

let test_calibrate_ledger () =
  Alcotest.(check (float 1e-9)) "q-error symmetric over" 100.0
    (Calibrate.q_error ~est:10.0 ~actual:1000.0);
  Alcotest.(check (float 1e-9)) "q-error symmetric under" 100.0
    (Calibrate.q_error ~est:1000.0 ~actual:10.0);
  Alcotest.(check (float 1e-9)) "q-error floors empty nodes" 1.0
    (Calibrate.q_error ~est:0.0 ~actual:0.5);
  let c = Calibrate.create () in
  Calibrate.observe c ~phase:"phase 0" ~at:0.1 ~point:Calibrate.Poll
    ~node:"a" ~est:10.0 ~actual:1000.0;
  Calibrate.observe c ~phase:"phase 0" ~at:0.2 ~point:Calibrate.Phase_close
    ~node:"a" ~est:10.0 ~actual:20.0;
  Calibrate.observe c ~phase:"phase 0" ~at:0.2 ~point:Calibrate.Poll
    ~node:"b" ~est:5.0 ~actual:30.0;
  Alcotest.(check int) "all observations kept" 3
    (List.length (Calibrate.observations c));
  (* latest_by_node supersedes: node a's q-error fell from 100 to 2, so
     the worst standing misestimate is now b. *)
  Alcotest.(check int) "latest per node" 2
    (List.length (Calibrate.latest_by_node c));
  (match Calibrate.worst c with
   | Some (node, q) ->
     Alcotest.(check string) "worst node" "b" node;
     Alcotest.(check (float 1e-9)) "worst q" 6.0 q
   | None -> Alcotest.fail "no worst node");
  Calibrate.decide c ~phase:"phase 0" ~at:0.3
    ~verdict:(Calibrate.Kept_guard "max-phases") ~current_cost:100.0
    ~best_cost:90.0 ~switch_cost:120.0 ~threshold:0.8;
  (match Calibrate.decisions c with
   | [ d ] ->
     Alcotest.(check (float 1e-9)) "margin = switch - bar" 40.0
       d.Calibrate.d_margin;
     (match d.Calibrate.d_blame with
      | Some (node, _) -> Alcotest.(check string) "decision blames b" "b" node
      | None -> Alcotest.fail "decision carries no blame")
   | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds));
  let out = Format.asprintf "%a" Calibrate.render c in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("render has " ^ s) true (contains ~needle:s out))
    [ "blame: b (q-error 6.00)"; "keep (guard: max-phases)"; "q-error" ]

(* The tentpole invariant: attaching the profiler and the calibration
   ledger changes nothing — bit-identical report, same answer — while the
   ledger still catches the mis-costed plan and names the blame node. *)
let test_profiling_is_free () =
  let plain = run_q3a () in
  let profile = Profile.create () in
  let calibrate = Calibrate.create () in
  let trace = Trace.memory () in
  let profiled = run_q3a ~trace ~profile ~calibrate () in
  check_same_report "profiled report = unprofiled report"
    plain.Strategy.report profiled.Strategy.report;
  check_bag "profiled result = unprofiled result"
    (Relation.to_list plain.Strategy.result)
    (Relation.to_list profiled.Strategy.result);
  (* The profile attributes real work, per phase and in stitch-up... *)
  let infos = Profile.spans profile in
  Alcotest.(check bool) "spans recorded" true (infos <> []);
  Alcotest.(check bool) "stitch-up profiled" true
    (List.exists
       (fun (i : Profile.info) -> i.Profile.phase = "stitch-up")
       infos);
  Alcotest.(check bool) "multiple phases profiled" true
    (List.exists
       (fun (i : Profile.info) -> i.Profile.phase = "phase 1")
       infos);
  (* ...and never invents time: everything attributed was also charged. *)
  let attributed =
    List.fold_left
      (fun acc (i : Profile.info) -> acc +. i.Profile.self_us)
      0.0 infos
  in
  Alcotest.(check bool) "attribution within the charged clock" true
    (attributed > 0.0
     && attributed
        <= plain.Strategy.report.Report.time_s *. 1e6 *. (1.0 +. 1e-9));
  (* The ledger saw the switch and blames a node for it. *)
  Alcotest.(check bool) "a switch was recorded" true
    (List.exists
       (fun d -> d.Calibrate.d_verdict = Calibrate.Switched)
       (Calibrate.decisions calibrate));
  Alcotest.(check bool) "blame assigned" true (Calibrate.worst calibrate <> None);
  (* Traced + profiled: the end-of-run summaries land in the trace, one
     Node_profile per span, one Calibration per node, exactly one blamed. *)
  Alcotest.(check int) "one Node_profile per span" (List.length infos)
    (count_events trace
       (function Trace.Node_profile _ -> true | _ -> false));
  Alcotest.(check int) "one Calibration per node"
    (List.length (Calibrate.latest_by_node calibrate))
    (count_events trace
       (function Trace.Calibration _ -> true | _ -> false));
  Alcotest.(check int) "exactly one blame marker" 1
    (count_events trace
       (function Trace.Calibration { blame = true; _ } -> true | _ -> false));
  (* The explain replay folds both summaries in. *)
  let out = Format.asprintf "%a" Trace.explain (Trace.events trace) in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("explain has " ^ s) true (contains ~needle:s out))
    [ "per-node profile"; "calibration (latest per node)" ]

(* ---------------- checkpoints and resume ---------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let e2e_dataset =
  Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Uniform; seed = 11 }

let e2e_query =
  Sql_parser.parse ~schema_of:Tpch.schema_of
    "SELECT orders.o_orderkey, lineitem.l_quantity FROM orders, lineitem \
     WHERE orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderdate < \
     DATE '1995-03-15'"

let run_e2e ?trace ?metrics ?profile ?calibrate ?checkpoint ?resume_from
    ?(crash = []) () =
  let catalog = Workload.catalog e2e_dataset e2e_query in
  let sources () = Workload.sources e2e_dataset e2e_query () in
  let cfg =
    { Corrective.default_config with
      poll_interval = 2e4; checkpoint; resume_from; crash; calibrate }
  in
  Strategy.run ~label:"e2e" ?trace ?metrics ?profile
    (Strategy.Corrective cfg) e2e_query catalog ~sources

let test_resume_traced_equals_untraced () =
  let dir = "obs-ckpt-test" in
  rm_rf dir;
  let policy = Checkpoint.policy ~every_tuples:500 ~dir () in
  (* A traced run that crashes mid-phase still traces its checkpoints. *)
  let crash_trace = Trace.memory () in
  (match
     run_e2e ~trace:crash_trace ~checkpoint:policy
       ~crash:[ Crash.After_tuples 2000 ] ()
   with
   | _ -> Alcotest.fail "expected crash"
   | exception Crash.Crashed _ -> ());
  Alcotest.(check bool) "checkpoint writes traced" true
    (count_events crash_trace
       (function Trace.Checkpoint_written { bytes; _ } -> bytes > 0
               | _ -> false)
     > 0);
  (* Resume untraced and traced: byte-identical reports and answers. *)
  let plain = run_e2e ~resume_from:dir () in
  let trace = Trace.memory () in
  let metrics = Metrics.create () in
  let traced = run_e2e ~trace ~metrics ~resume_from:dir () in
  check_same_report "resumed traced report = untraced" plain.Strategy.report
    traced.Strategy.report;
  check_bag "resumed traced result = untraced"
    (Relation.to_list plain.Strategy.result)
    (Relation.to_list traced.Strategy.result);
  Alcotest.(check int) "resume event traced" 1
    (count_events trace
       (function Trace.Checkpoint_resumed { phases; _ } -> phases > 0
               | _ -> false));
  (* And the resumed answer is the uninterrupted answer. *)
  let want = run_e2e () in
  check_bag "resumed = uninterrupted"
    (Relation.to_list traced.Strategy.result)
    (Relation.to_list want.Strategy.result);
  rm_rf dir

let test_resume_profiled_equals_unprofiled () =
  let dir = "obs-prof-ckpt-test" in
  rm_rf dir;
  let policy = Checkpoint.policy ~every_tuples:500 ~dir () in
  (* A profiled run that crashes mid-phase keeps its pre-crash spans. *)
  let crash_profile = Profile.create () in
  (match
     run_e2e ~profile:crash_profile ~calibrate:(Calibrate.create ())
       ~checkpoint:policy ~crash:[ Crash.After_tuples 2000 ] ()
   with
   | _ -> Alcotest.fail "expected crash"
   | exception Crash.Crashed _ -> ());
  Alcotest.(check bool) "pre-crash work attributed" true
    (Profile.spans crash_profile <> []);
  (* Resume unprofiled and profiled: byte-identical reports and answers. *)
  let plain = run_e2e ~resume_from:dir () in
  let profile = Profile.create () in
  let profiled =
    run_e2e ~profile ~calibrate:(Calibrate.create ()) ~resume_from:dir ()
  in
  check_same_report "resumed profiled report = unprofiled"
    plain.Strategy.report profiled.Strategy.report;
  check_bag "resumed profiled result = unprofiled"
    (Relation.to_list plain.Strategy.result)
    (Relation.to_list profiled.Strategy.result);
  (* The forced phase switch shows up as distinct profile phases: the
     residual phase plus the stitch-up at least. *)
  let phases =
    List.sort_uniq compare
      (List.map
         (fun (i : Profile.info) -> i.Profile.phase)
         (Profile.spans profile))
  in
  Alcotest.(check bool) "residual phase and stitch-up profiled" true
    (List.length phases >= 2 && List.mem "stitch-up" phases);
  rm_rf dir

(* The registry holds the engine counters [Ctx] registers and nothing
   else: no gauge, no per-node cell, no server cell.  Under a server
   every cell is scoped by its query. *)
let engine_families =
  [ "adp_breaker_trips_total"; "adp_checkpoint_bytes_total";
    "adp_checkpoints_total"; "adp_degraded_total"; "adp_failovers_total";
    "adp_paged_out_total"; "adp_retries_total"; "adp_sources_failed_total";
    "adp_tuples_read_total" ]

let prom_families text =
  List.filter_map
    (fun l -> Scanf.sscanf_opt l "# TYPE %s %s" (fun f k -> (f, k)))
    (String.split_on_char '\n' text)

let test_metrics_census () =
  let nine = List.map (fun f -> (f, "counter")) engine_families in
  let metrics = Metrics.create () in
  ignore (run_q3a ~metrics ());
  let text = Metrics.to_prometheus metrics in
  validate_prometheus text;
  Alcotest.(check (list (pair string string)))
    "corrective run: the nine counter families" nine (prom_families text);
  let module Server = Adp_server.Server in
  let dir = "obs-census-ckpt" in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let metrics = Metrics.create () in
  let cfg =
    { (Server.default_config ~checkpoint_dir:dir) with
      Server.metrics = Some metrics }
  in
  let script =
    match
      Adp_server.Script.parse
        "at 0 submit a Q3A\nat 0 submit b Q3\nat 0.001 kill a tuples:900"
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "census script rejected"
  in
  let r = Server.run cfg (Server.tpch_resolver q3a_dataset) script in
  rm_rf dir;
  Alcotest.(check (pair int int)) "serve: both done, one reclaim" (2, 1)
    (r.Server.r_done, r.Server.r_reclaims);
  let text = Metrics.to_prometheus metrics in
  validate_prometheus text;
  Alcotest.(check (list (pair string string)))
    "serve: the nine counter families" nine (prom_families text);
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then
        Alcotest.(check bool) ("query-scoped: " ^ l) true
          (contains ~needle:"{query=\"" l))
    (String.split_on_char '\n' text)

(* ---------------- explain replay ---------------- *)

let test_explain_renders_run () =
  let trace = Trace.memory () in
  let _ = run_q3a ~trace () in
  let out = Format.asprintf "%a" Trace.explain (Trace.events trace) in
  let has s =
    Alcotest.(check bool) ("explain mentions " ^ s) true
      (contains ~needle:s out)
  in
  has "phase 0 opened";
  has "re-opt poll";
  has "evidence: sel";
  has "plan switch";
  has "stitch-up";
  has "events spanning";
  (* The summary counts agree with the events. *)
  has
    (Printf.sprintf "switches %d"
       (count_events trace
          (function Trace.Plan_switch _ -> true | _ -> false)))

(* A serve trace marks each re-stamped attempt block with a
   [Query_attempt] header; explain renders the block as a lane. *)
let test_explain_lanes () =
  let events =
    [ (0.0, Trace.Worker_spawned { worker = 1 });
      ( 10.0,
        Trace.Query_attempt { query = "qa"; attempt = 1; worker = 1; events = 2 } );
      (10.0, Trace.Phase_opened { id = 0; plan = "scan" });
      (20.0, Trace.Phase_closed { id = 0; read = 5; emitted = 5 });
      (30.0, Trace.Worker_spawned { worker = 2 }) ]
  in
  let text = Format.asprintf "%a" Trace.explain events in
  let lines = String.split_on_char '\n' text in
  let has f = List.exists f lines in
  (* The two inner events render inside qa's lane; the lane closes when
     its block is exhausted. *)
  Alcotest.(check bool) "lane header" true
    (has (fun l ->
         contains ~needle:"query qa attempt 1 on worker 1" l
         && contains ~needle:"2 re-stamped events" l));
  Alcotest.(check bool) "lane prefix on inner events" true
    (has (fun l -> contains ~needle:"qa| phase 0 opened" l));
  Alcotest.(check bool) "lane prefix on second inner event" true
    (has (fun l -> contains ~needle:"qa| phase 0 closed" l));
  Alcotest.(check bool) "lane closed after block" true
    (has (fun l ->
         contains ~needle:"worker 2 spawned" l
         && not (contains ~needle:"qa| " l)));
  Alcotest.(check bool) "lanes summary" true
    (has (fun l -> contains ~needle:"lanes: 1 query-attempt block" l));
  (* Trace JSON round-trip for every event of the lane. *)
  List.iter
    (fun (at, ev) ->
      match Trace.of_json (Trace.to_json (at, ev)) with
      | Ok (at', ev') ->
        Alcotest.(check (float 0.0)) "stamp" at at';
        Alcotest.(check bool) ("round-trip " ^ Trace.event_name ev) true
          (ev = ev')
      | Error m -> Alcotest.fail m)
    events

(* ---------------- wall-clock sidecar ---------------- *)

(* The tentpole invariant extended to hardware time: attaching the wall
   recorder (which reads gettimeofday and Gc state at every charge)
   changes nothing the engine computes — bit-identical report, same
   answer, bit-identical decision ledger — while the recorder still
   attributes real time and allocation to the run's spans. *)
let test_wall_capture_is_free () =
  let cal_plain = Calibrate.create () in
  let plain = run_q3a ~calibrate:cal_plain () in
  let cal_wall = Calibrate.create () in
  let wall = Wallclock.create () in
  let walled = run_q3a ~calibrate:cal_wall ~wall () in
  check_same_report "wall-captured report = bare report"
    plain.Strategy.report walled.Strategy.report;
  check_bag "wall-captured result = bare result"
    (Relation.to_list plain.Strategy.result)
    (Relation.to_list walled.Strategy.result);
  Alcotest.(check bool) "decision ledger bit-identical" true
    (Calibrate.decisions cal_plain = Calibrate.decisions cal_wall);
  (* ... and the sidecar actually recorded the run. *)
  let infos = Wallclock.spans wall in
  Alcotest.(check bool) "wall spans recorded" true (infos <> []);
  Alcotest.(check bool) "wall self-time attributed" true
    (List.exists (fun (i : Wallclock.info) -> i.Wallclock.self_s > 0.0) infos);
  Alcotest.(check bool) "sampler ticked" true (Wallclock.sample_count wall > 0);
  let g = Wallclock.gc_totals wall in
  Alcotest.(check bool) "allocation observed" true
    (g.Wallclock.g_minor_words > 0.0)

(* One span registry: the recorder keeps no spans of its own, so every
   wall span is a profile span (same phase, node, depth and order); the
   wall-only buckets are depth-0 spans that never parent anything, in the
   span tree or in the rendered tree's cumulative times; and the
   virtual spans are the same with or without the recorder attached. *)
let test_one_span_registry () =
  let bare = Profile.create () in
  ignore (run_q3a ~profile:bare ());
  let profile = Profile.create () in
  let wall = Wallclock.create () in
  ignore (run_q3a ~profile ~wall ());
  let spans = Profile.spans profile in
  let key (i : Profile.info) =
    (i.Profile.phase, i.Profile.node, i.Profile.depth, i.Profile.order)
  in
  let wkey (i : Wallclock.info) =
    (i.Wallclock.phase, i.Wallclock.node, i.Wallclock.depth, i.Wallclock.order)
  in
  Alcotest.(check bool) "wall spans are the profile's spans" true
    (List.map wkey (Wallclock.spans wall) = List.map key spans);
  Alcotest.(check bool) "the recorder stamped the profile" true
    (List.exists (fun (i : Profile.info) -> i.Profile.wall_s > 0.0) spans);
  let buckets = List.filter (fun (i : Profile.info) -> i.Profile.bucket) spans in
  Alcotest.(check bool) "buckets recorded" true
    (List.exists
       (fun (i : Profile.info) -> i.Profile.node = "(driver wait)")
       buckets);
  Alcotest.(check bool) "buckets sit at depth 0" true
    (List.for_all (fun (i : Profile.info) -> i.Profile.depth = 0) buckets);
  let by_order = Array.of_list spans in
  Alcotest.(check bool) "no bucket is a parent" true
    (List.for_all
       (fun (i : Profile.info) ->
         match i.Profile.parent with
         | None -> true
         | Some o -> not by_order.(o).Profile.bucket)
       spans);
  (* Cumulative time of each span = self time of its parent-pointer
     subtree, buckets interleaved in the listing or not. *)
  let rec descends (i : Profile.info) o =
    match i.Profile.parent with
    | None -> false
    | Some p -> p = o || descends by_order.(p) o
  in
  List.iter
    (fun (root : Profile.info) ->
      let phase =
        List.filter
          (fun (i : Profile.info) -> i.Profile.phase = root.Profile.phase)
          spans
      in
      let idx = ref 0 in
      List.iteri
        (fun n (i : Profile.info) ->
          if i.Profile.order = root.Profile.order then idx := n)
        phase;
      let expect =
        List.fold_left
          (fun acc (i : Profile.info) ->
            if descends i root.Profile.order then acc +. i.Profile.self_us
            else acc)
          root.Profile.self_us phase
      in
      Alcotest.(check (float 1e-6))
        ("cumulative of " ^ root.Profile.node)
        expect
        (Profile.cumulative_us phase !idx))
    spans;
  let virtual_fields l =
    List.filter_map
      (fun (i : Profile.info) ->
        if i.Profile.bucket then None
        else
          Some
            ( (i.Profile.phase, i.Profile.node, i.Profile.depth),
              ( i.Profile.self_us, i.Profile.tuples_in, i.Profile.tuples_out,
                (i.Profile.probes, i.Profile.builds, i.Profile.mem_hw) ) ))
      l
  in
  let bare_spans = Profile.spans bare in
  Alcotest.(check bool) "virtual spans unchanged by the recorder" true
    (virtual_fields spans = virtual_fields bare_spans);
  Alcotest.(check bool) "no recorder, no buckets and no wall numbers" true
    (List.for_all
       (fun (i : Profile.info) ->
         (not i.Profile.bucket) && i.Profile.wall_s = 0.0
         && i.Profile.samples = 0)
       bare_spans)

(* Recorder mechanics that don't need an engine run: the monotonic
   timebase, scoped phase keys, and a sampler tick on every 64th
   attribution, landing in the span it samples. *)
let test_wall_recorder_mechanics () =
  let a = Wallclock.monotonic_s () in
  let b = Wallclock.monotonic_s () in
  Alcotest.(check bool) "monotonic probe never steps back" true (b >= a);
  let w = Wallclock.create () in
  let p = Wallclock.profile w in
  Profile.set_scope p "q:42";
  Profile.set_phase p "phase 0";
  Wallclock.attribute w None;
  Wallclock.note_bucket w "(driver wait)";
  Profile.set_scope p "";
  (match Wallclock.spans w with
   | [] -> Alcotest.fail "no spans"
   | infos ->
     Alcotest.(check bool) "scope prefixes the phase key" true
       (List.for_all
          (fun (i : Wallclock.info) -> i.Wallclock.phase = "q:42:phase 0")
          infos));
  (* Two attributions so far: fewer than the sampler period. *)
  Alcotest.(check int) "sampler never ticked" 0 (Wallclock.sample_count w);
  let attribute n = for _ = 1 to n do Wallclock.attribute w None done in
  attribute 61;
  Alcotest.(check int) "63 attributions: no tick" 0 (Wallclock.sample_count w);
  attribute 1;
  Alcotest.(check int) "64th attribution ticks" 1 (Wallclock.sample_count w);
  attribute 63;
  Alcotest.(check int) "127 attributions: one tick" 1
    (Wallclock.sample_count w);
  attribute 1;
  Alcotest.(check int) "128th attribution ticks again" 2
    (Wallclock.sample_count w);
  (* Every tick lands in one span: the per-span counts sum to the total. *)
  let ticks =
    List.fold_left
      (fun acc (i : Wallclock.info) -> acc + i.Wallclock.samples)
      0 (Wallclock.spans w)
  in
  Alcotest.(check int) "span samples sum to the tick count"
    (Wallclock.sample_count w) ticks

(* ---------------- bench gating ---------------- *)

let doc cells = { Bjson.bench = "t"; scale = 0.02; cells }

let diff_ok b c =
  match Benchdiff.diff ~baseline:b ~current:c with
  | Ok o -> o
  | Error m -> Alcotest.fail m

let test_benchdiff_zero_and_nan () =
  (* Regression: a zero-valued baseline time cell used to make the old
     relative-error math fragile.  Two zeros are equal... *)
  let z = doc [ Bjson.time "t/zero" 0.0; Bjson.time "t/busy" 1.0 ] in
  let o = diff_ok z z in
  Alcotest.(check (list string)) "zero baseline vs zero current passes" []
    o.Benchdiff.o_breaches;
  Alcotest.(check int) "both time cells gated" 2 o.Benchdiff.o_gated;
  (* ...and zero -> nonzero is a real breach, not a NaN pass. *)
  let n =
    doc [ Bjson.time "t/zero" 0.1; Bjson.time "t/busy" 1.0 ]
  in
  let o = diff_ok z n in
  Alcotest.(check int) "zero -> nonzero breaches" 1
    (List.length o.Benchdiff.o_breaches);
  (* Non-finite values are explicit breaches, never silent passes. *)
  let bad = doc [ Bjson.time "t/busy" Float.nan ] in
  let o = diff_ok (doc [ Bjson.time "t/busy" 1.0 ]) bad in
  Alcotest.(check int) "NaN current breaches" 1
    (List.length o.Benchdiff.o_breaches);
  let o = diff_ok bad bad in
  Alcotest.(check int) "NaN baseline breaches too" 1
    (List.length o.Benchdiff.o_breaches)

(* Every cell is deterministic under the virtual clock, so time cells
   gate exactly: a 5% drift is a breach, not noise. *)
let test_benchdiff_time_exact () =
  let o =
    diff_ok (doc [ Bjson.time "t/busy" 1.0 ]) (doc [ Bjson.time "t/busy" 1.05 ])
  in
  Alcotest.(check (list string)) "1.0 -> 1.05 breaches"
    [ "BREACH time       t/busy: 1 -> 1.05 (must match exactly)" ]
    o.Benchdiff.o_breaches

(* Exit code of the real [tukwila bench-diff] on two documents given as
   text. *)
let bench_diff_exit base_text new_text =
  let write text =
    let path = Filename.temp_file "bench-diff" ".json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let base = write base_text and fresh = write new_text in
  let tukwila =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "bin/tukwila.exe")
  in
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote [ tukwila; "bench-diff"; base; fresh ])
      ^ " > /dev/null 2>&1")
  in
  Sys.remove base;
  Sys.remove fresh;
  code

(* The wall kind is retired: a baseline still carrying a wall cell must
   fail to load, naming the cell, and bench-diff must exit 2 on it
   rather than skip the cell. *)
let test_benchdiff_stale_wall () =
  let stale =
    {|{ "schema": 1, "bench": "t", "scale": 0.02, "cells": [
    { "id": "t/busy", "kind": "time", "value": 1 },
    { "id": "k-wall-median", "kind": "wall", "value": 0.011 } ] }|}
  in
  (match Bjson.of_string stale with
   | Ok _ -> Alcotest.fail "a wall cell must not load"
   | Error m ->
     Alcotest.(check string) "error names the cell"
       {|cell "k-wall-median": unknown kind "wall"|} m);
  Alcotest.(check int) "bench-diff exits 2" 2
    (bench_diff_exit stale
       (Bjson.to_string (doc [ Bjson.time "t/busy" 1.0 ])))

(* bench-diff pairs cells by id: a document that repeats an id must fail
   to load, naming the id, rather than let the second cell go
   ungated. *)
let test_benchdiff_repeated_id () =
  let baseline = doc [ Bjson.count "a" 1; Bjson.count "b" 2 ] in
  let repeated =
    Bjson.to_string
      (doc [ Bjson.count "a" 1; Bjson.count "a" 99; Bjson.count "b" 2 ])
  in
  (match Bjson.of_string repeated with
   | Ok _ -> Alcotest.fail "a repeated id must not load"
   | Error m ->
     Alcotest.(check string) "error names the id" {|cell "a": repeated id|} m);
  Alcotest.(check int) "bench-diff exits 2" 2
    (bench_diff_exit (Bjson.to_string baseline) repeated)

(* Bench id, scale and cell shape must agree; a mismatch is an [Error]
   (exit 2), distinct from a value breach (exit 1). *)
let test_benchdiff_shape_mismatch () =
  let baseline =
    doc [ Bjson.count "alpha" 1; Bjson.time "beta" 2.0; Bjson.flag "gamma" true ]
  in
  let current =
    doc [ Bjson.count "alpha" 1; Bjson.count "delta" 3; Bjson.count "zeta" 9 ]
  in
  (match Benchdiff.diff ~baseline ~current with
   | Ok _ -> Alcotest.fail "shape mismatch accepted"
   | Error m ->
     (* Sorted missing and extra cell names, distinct from a breach. *)
     Alcotest.(check bool) "mentions shape" true
       (contains ~needle:"shape mismatch" m);
     Alcotest.(check bool) "missing sorted" true
       (contains ~needle:"missing 2 cells: beta, gamma" m);
     Alcotest.(check bool) "extra sorted" true
       (contains ~needle:"extra 2 cells: delta, zeta" m));
  (* So are a different bench id and a different scale. *)
  (match
     Benchdiff.diff ~baseline ~current:{ baseline with Bjson.bench = "other" }
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bench id mismatch must be an error");
  (match
     Benchdiff.diff ~baseline ~current:{ baseline with Bjson.scale = 0.1 }
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "scale mismatch must be an error");
  (* A genuine regression on an aligned shape is a breach, not an
     Error. *)
  let o = diff_ok (doc [ Bjson.count "alpha" 1 ]) (doc [ Bjson.count "alpha" 2 ]) in
  Alcotest.(check int) "one breach" 1 (List.length o.Benchdiff.o_breaches)

(* Bjson documents written by the harness parse back bit-equal. *)
let test_bjson_roundtrip () =
  let d =
    { Bjson.bench = "roundtrip"; scale = 0.02;
      cells =
        [ Bjson.time "a/t" 1.25; Bjson.count "a/n" 7; Bjson.flag "a/ok" true;
          Bjson.num "a/frac" 0.75 ] }
  in
  match Bjson.of_string (Bjson.to_string d) with
  | Error m -> Alcotest.fail m
  | Ok d' ->
    Alcotest.(check bool) "document roundtrips bit-equal" true (d = d')

let suite =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json edge cases" `Quick test_json_edge_cases;
    Alcotest.test_case "event jsonl roundtrip" `Quick
      test_event_jsonl_roundtrip;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics label scopes" `Quick
      test_metrics_label_scopes;
    Alcotest.test_case "with_labels has no leaks" `Quick
      test_with_labels_no_leaks;
    Alcotest.test_case "prometheus families" `Quick test_prometheus_families;
    Alcotest.test_case "the metrics dump holds the engine counters only"
      `Quick test_metrics_census;
    Alcotest.test_case "tracing is free" `Quick test_tracing_is_free;
    Alcotest.test_case "cqp event classes" `Quick test_cqp_event_classes;
    Alcotest.test_case "fault events" `Quick test_fault_events;
    Alcotest.test_case "page-out events" `Quick test_page_out_events;
    Alcotest.test_case "window resize events" `Quick
      test_window_resize_events;
    Alcotest.test_case "comp-join routing events" `Quick
      test_comp_join_route_events;
    Alcotest.test_case "profile spans" `Quick test_profile_spans;
    Alcotest.test_case "calibration ledger" `Quick test_calibrate_ledger;
    Alcotest.test_case "profiling is free" `Quick test_profiling_is_free;
    Alcotest.test_case "kill+resume traced = untraced" `Quick
      test_resume_traced_equals_untraced;
    Alcotest.test_case "kill+resume profiled = unprofiled" `Quick
      test_resume_profiled_equals_unprofiled;
    Alcotest.test_case "explain replay" `Quick test_explain_renders_run;
    Alcotest.test_case "explain lanes" `Quick test_explain_lanes;
    Alcotest.test_case "wall capture is free" `Quick test_wall_capture_is_free;
    Alcotest.test_case "one span registry" `Quick test_one_span_registry;
    Alcotest.test_case "wall recorder mechanics" `Quick
      test_wall_recorder_mechanics;
    Alcotest.test_case "bench-diff zero and NaN cells" `Quick
      test_benchdiff_zero_and_nan;
    Alcotest.test_case "bench-diff time cells are exact" `Quick
      test_benchdiff_time_exact;
    Alcotest.test_case "bench-diff rejects stale wall baselines" `Quick
      test_benchdiff_stale_wall;
    Alcotest.test_case "bench-diff rejects a repeated cell id" `Quick
      test_benchdiff_repeated_id;
    Alcotest.test_case "bench-diff shape mismatch" `Quick
      test_benchdiff_shape_mismatch;
    Alcotest.test_case "bjson roundtrip" `Quick test_bjson_roundtrip ]
