(* Server telemetry over time: the SLO grammar and monitor, the
   ring-buffer recorder and its windowed aggregates, JSONL export
   round-trips and byte-determinism, label-scoped registry views under
   many queries (no leaks after prune), the Prometheus exposition
   contract (one HELP + one TYPE per family, contiguous samples), the
   telemetered serve's zero-perturbation and sampling alignment, the
   per-query explain lanes, the bench-diff shape gate, and the
   longitudinal bench-history trajectories. *)

open Adp_datagen
module Diagnostic = Adp_analysis.Diagnostic
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Slo = Adp_obs.Slo
module Timeseries = Adp_obs.Timeseries
module Bjson = Adp_obs.Bjson
module Benchdiff = Adp_obs.Benchdiff
module Benchhistory = Adp_obs.Benchhistory
module Script = Adp_server.Script
module Server = Adp_server.Server

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---------------- SLO grammar ---------------- *)

let test_slo_parse () =
  (match Slo.parse "depth=adp_server_queue_depth p95 < 8" with
   | Error m -> Alcotest.fail m
   | Ok o ->
     Alcotest.(check string) "name" "depth" o.Slo.o_name;
     Alcotest.(check string) "metric" "adp_server_queue_depth" o.Slo.o_metric;
     Alcotest.(check bool) "agg" true (o.Slo.o_agg = Slo.P95);
     Alcotest.(check bool) "op" true (o.Slo.o_op = Slo.Lt);
     Alcotest.(check (float 0.0)) "bound" 8.0 o.Slo.o_bound;
     Alcotest.(check string) "round-trip"
       "depth=adp_server_queue_depth p95 < 8" (Slo.to_string o));
  (match Slo.parse "lat=adp_latency >= 0.5" with
   | Error m -> Alcotest.fail m
   | Ok o ->
     Alcotest.(check bool) "default agg is last" true (o.Slo.o_agg = Slo.Last);
     Alcotest.(check bool) "ge" true (o.Slo.o_op = Slo.Ge));
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "justaname"; "x="; "x=metric"; "x=metric < "; "x=metric ? 5";
      "x=metric frobnicate < 5"; "x=metric < five"; "=metric < 5" ]

let test_slo_monitor_transitions () =
  let o =
    match Slo.parse "depth=queue last < 2" with
    | Ok o -> o
    | Error m -> Alcotest.fail m
  in
  let m = Slo.monitor [ o ] in
  let eval v =
    Slo.evaluate m ~values:(fun ~metric agg ->
        ignore agg;
        if metric = "queue" then [ v ] else [])
  in
  Alcotest.(check int) "healthy start" 0 (List.length (eval 0.0));
  (match eval 5.0 with
   | [ t ] ->
     Alcotest.(check bool) "violated" true t.Slo.t_violated;
     Alcotest.(check (float 0.0)) "worst offender" 5.0 t.Slo.t_value
   | ts -> Alcotest.failf "expected one transition, got %d" (List.length ts));
  Alcotest.(check int) "no re-report while violated" 0
    (List.length (eval 9.0));
  Alcotest.(check int) "one active" 1
    (List.length (Slo.active_violations m));
  (match eval 1.0 with
   | [ t ] -> Alcotest.(check bool) "recovered" false t.Slo.t_violated
   | ts -> Alcotest.failf "expected recovery, got %d" (List.length ts));
  Alcotest.(check int) "none active" 0
    (List.length (Slo.active_violations m))

(* ---------------- recorder ---------------- *)

let test_recorder_series_and_aggregates () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"ticks" "t_ticks_total" in
  let g = Metrics.gauge m ~help:"depth" "t_depth" in
  let ts = Timeseries.create () in
  (* Past the 512-point ring, so it wraps. *)
  for i = 1 to 600 do
    Metrics.incr c;
    Metrics.set g (float_of_int (1000 - i));
    ignore (Timeseries.sample ts ~now_s:(float_of_int i) m)
  done;
  Alcotest.(check int) "samples" 600 (Timeseries.samples ts);
  Alcotest.(check int) "series" 2 (Timeseries.series_count ts);
  Alcotest.(check (option (float 1e-9))) "last counter" (Some 600.0)
    (Timeseries.aggregate ts ~metric:"t_ticks_total" Slo.Last);
  (* The window is the last 32 samples, t 569 .. 600. *)
  Alcotest.(check (option (float 1e-9))) "window starts at sample 569"
    (Some 569.0)
    (Timeseries.aggregate ts ~metric:"t_ticks_total" Slo.Min);
  Alcotest.(check (option (float 1e-9))) "windowed min of gauge" (Some 400.0)
    (Timeseries.aggregate ts ~metric:"t_depth" Slo.Min);
  Alcotest.(check (option (float 1e-9))) "windowed max of gauge" (Some 431.0)
    (Timeseries.aggregate ts ~metric:"t_depth" Slo.Max);
  Alcotest.(check (option (float 1e-9))) "windowed median" (Some 416.0)
    (Timeseries.aggregate ts ~metric:"t_depth" Slo.Median);
  Alcotest.(check (option (float 1e-9))) "windowed p95" (Some 429.0)
    (Timeseries.aggregate ts ~metric:"t_depth" Slo.P95);
  Alcotest.(check (option (float 1e-9))) "windowed rate" (Some 1.0)
    (Timeseries.aggregate ts ~metric:"t_ticks_total" Slo.Rate);
  Alcotest.(check (option (float 0.0))) "absent metric" None
    (Timeseries.aggregate ts ~metric:"nope" Slo.Last);
  let doc =
    match Timeseries.of_jsonl (Timeseries.to_jsonl ts) with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "exported capacity" 512 doc.Timeseries.d_capacity;
  Alcotest.(check int) "exported window" 32 doc.Timeseries.d_window;
  let depth =
    List.find (fun s -> s.Timeseries.ds_name = "t_depth") doc.Timeseries.d_series
  in
  Alcotest.(check int) "ring capped" 512 (List.length depth.Timeseries.ds_points);
  Alcotest.(check int) "total recorded" 600 depth.Timeseries.ds_total;
  Alcotest.(check (list (float 1e-9))) "retained in time order"
    (List.init 512 (fun i -> float_of_int (89 + i)))
    (List.map fst depth.Timeseries.ds_points);
  (match depth.Timeseries.ds_points with
   | (_, v0) :: _ -> Alcotest.(check (float 1e-9)) "oldest retained v" 911.0 v0
   | [] -> Alcotest.fail "no points")

let test_jsonl_roundtrip_and_determinism () =
  let record () =
    let m = Metrics.create () in
    let c = Metrics.counter m ~help:"ticks" "t_ticks_total" in
    let ts =
      Timeseries.create
        ~slos:
          [ (match Slo.parse "ticks=t_ticks_total last < 2" with
             | Ok o -> o
             | Error e -> Alcotest.fail e) ]
        ()
    in
    Timeseries.span ts ~at_s:0.0 ~query:"q1" ~state:"submitted" ();
    Metrics.incr c;
    ignore (Timeseries.sample ts ~now_s:0.5 m);
    Timeseries.span ts ~at_s:0.6 ~query:"q1" ~state:"started" ~worker:1
      ~attempt:1 ();
    Timeseries.provenance ts ~at_s:0.7 ~query:"q1" ~signatures:[ "sigA"; "sigB" ];
    Metrics.incr c ~by:3;
    ignore (Timeseries.sample ts ~now_s:1.0 m);
    Timeseries.span ts ~at_s:1.2 ~query:"q1" ~state:"done" ~worker:1
      ~attempt:1 ();
    Timeseries.to_jsonl ts
  in
  let j1 = record () and j2 = record () in
  Alcotest.(check string) "byte-identical re-recording" j1 j2;
  match Timeseries.of_jsonl j1 with
  | Error m -> Alcotest.fail m
  | Ok doc ->
    Alcotest.(check int) "samples" 2 (List.length doc.Timeseries.d_samples);
    Alcotest.(check int) "spans" 3 (List.length doc.Timeseries.d_spans);
    Alcotest.(check int) "provs" 1 (List.length doc.Timeseries.d_provs);
    Alcotest.(check int) "slo declared" 1 (List.length doc.Timeseries.d_slos);
    (* The ticks objective violates at the second sample (4 >= 2). *)
    (match doc.Timeseries.d_slo_log with
     | [ r ] ->
       Alcotest.(check bool) "violated" true r.Timeseries.sl_violated;
       Alcotest.(check string) "slo name" "ticks" r.Timeseries.sl_slo;
       Alcotest.(check (float 1e-9)) "value" 4.0 r.Timeseries.sl_value
     | l -> Alcotest.failf "expected one ledger entry, got %d" (List.length l));
    (match doc.Timeseries.d_spans with
     | s :: _ ->
       Alcotest.(check string) "span query" "q1" s.Timeseries.sp_query;
       Alcotest.(check string) "span state" "submitted" s.Timeseries.sp_state;
       Alcotest.(check int) "absent worker" (-1) s.Timeseries.sp_worker
     | [] -> Alcotest.fail "no spans");
    (match doc.Timeseries.d_provs with
     | [ p ] ->
       Alcotest.(check (list string)) "signatures" [ "sigA"; "sigB" ]
         p.Timeseries.pv_signatures
     | _ -> Alcotest.fail "expected one provenance edge")

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Timeseries.sparkline 10 []);
  let flat = Timeseries.sparkline 4 [ (0.0, 5.0); (1.0, 5.0); (2.0, 5.0) ] in
  Alcotest.(check int) "flat width" 3 (String.length flat);
  let ramp =
    Timeseries.sparkline 3 [ (0.0, 0.0); (1.0, 1.0); (2.0, 2.0); (3.0, 3.0) ]
  in
  Alcotest.(check int) "keeps last width points" 3 (String.length ramp);
  Alcotest.(check char) "max maps to densest" '@'
    ramp.[String.length ramp - 1]

(* ---------------- registry views under many queries ---------------- *)

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
        Metrics.incr c ~by:i;
        let g = Metrics.gauge v ~help:"depth" "adp_depth" in
        Metrics.set g (float_of_int i);
        v)
  in
  Alcotest.(check int) "scoped cells live" (base + 100) (Metrics.cells m);
  (* Re-registration under the same view is idempotent, not a new cell. *)
  let v0 = List.hd views in
  ignore (Metrics.counter v0 ~help:"rows" "adp_rows_total");
  Alcotest.(check int) "idempotent" (base + 100) (Metrics.cells m);
  (* ...and pruning every view retires exactly the scoped cells. *)
  List.iter Metrics.prune views;
  Alcotest.(check int) "no leaked labels" base (Metrics.cells m);
  let leaked =
    List.exists
      (fun (_, labels, _) -> List.mem_assoc "query" labels)
      (Metrics.readings m)
  in
  Alcotest.(check bool) "no query label survives" false leaked;
  (* The unscoped cell is untouched. *)
  Alcotest.(check int) "root cell kept" 1 (Metrics.count keep)

(* ---------------- Prometheus exposition ---------------- *)

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
    (fun v ->
      Metrics.incr (Metrics.counter v ~help:"rows" "adp_rows_total");
      ignore (Metrics.gauge v ~help:"depth" "adp_depth"))
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
    [ "adp_polls_total"; "adp_bare_total"; "adp_depth"; "adp_rows_total" ];
  (* The empty help string falls back to the family name, never an
     empty HELP line. *)
  Alcotest.(check bool) "synthesized help" true
    (List.exists
       (fun l -> l = "# HELP adp_bare_total adp_bare_total")
       (String.split_on_char '\n' text))

(* ---------------- telemetered serve ---------------- *)

let dataset =
  Tpch.generate { Tpch.scale = 0.004; distribution = Tpch.Uniform; seed = 42 }

let resolver = Server.tpch_resolver dataset

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "timeseries-test-ckpt-%d" !n in
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

let overload_script =
  "at 0 submit a Q3\n\
   at 0 submit b Q10\n\
   at 0 submit c Q3A\n\
   at 0.5 submit d Q3"

let overload_slos () =
  [ (match Slo.parse "depth=adp_server_queue_depth last < 1" with
     | Ok o -> o
     | Error m -> Alcotest.fail m) ]

let test_serve_sampling_alignment () =
  let run () =
    let ts = Timeseries.create ~slos:(overload_slos ()) () in
    with_server overload_script
      ~config:(fun c -> { c with Server.workers = 1; telemetry = Some ts })
      (fun r -> (r, ts))
  in
  let r1, ts1 = run () in
  let r2, ts2 = run () in
  (* Every dispatcher poll takes exactly one sample. *)
  Alcotest.(check int) "one sample per poll" r1.Server.r_polls
    (Timeseries.samples ts1);
  Alcotest.(check bool) "sampled at all" true (Timeseries.samples ts1 > 0);
  (* Repeated serves export byte-identical telemetry. *)
  Alcotest.(check string) "byte-identical JSONL"
    (Timeseries.to_jsonl ts1) (Timeseries.to_jsonl ts2);
  Alcotest.(check int) "same polls" r1.Server.r_polls r2.Server.r_polls;
  (* The one-worker burst must break the queue-depth objective and then
     recover as the queue drains. *)
  let doc =
    match Timeseries.of_jsonl (Timeseries.to_jsonl ts1) with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  let viol, recov =
    List.partition (fun s -> s.Timeseries.sl_violated) doc.Timeseries.d_slo_log
  in
  Alcotest.(check bool) "violated" true (List.length viol >= 1);
  Alcotest.(check bool) "recovered" true (List.length recov >= 1);
  (* Spans cover every query's lifecycle on the server clock. *)
  List.iter
    (fun qid ->
      List.iter
        (fun state ->
          Alcotest.(check bool)
            (Printf.sprintf "span %s/%s" qid state)
            true
            (List.exists
               (fun s ->
                 s.Timeseries.sp_query = qid && s.Timeseries.sp_state = state)
               doc.Timeseries.d_spans))
        [ "submitted"; "started"; "done" ])
    [ "a"; "b"; "c"; "d" ]

let test_serve_zero_perturbation () =
  let serve telemetry =
    let config c =
      { c with
        Server.workers = 1;
        telemetry =
          (if telemetry then Some (Timeseries.create ~slos:(overload_slos ()) ())
           else None) }
    in
    with_server overload_script ~config (fun r -> r)
  in
  let plain = serve false and telemetered = serve true in
  Alcotest.(check bool) "views identical" true
    (Server.view plain = Server.view telemetered);
  (* Result multisets too, not just the summary projection. *)
  List.iter2
    (fun (a : Server.query_report) (b : Server.query_report) ->
      match (a.Server.qr_outcome, b.Server.qr_outcome) with
      | Server.Done { result = ra; _ }, Server.Done { result = rb; _ } ->
        Alcotest.(check bool) ("rows " ^ a.Server.qr_id) true
          (Adp_relation.Relation.equal_bag ra rb)
      | _ -> ())
    plain.Server.r_queries telemetered.Server.r_queries

(* ---------------- explain lanes ---------------- *)

let test_explain_lanes () =
  let events =
    [ (0.0, Trace.Worker_spawned { worker = 1 });
      ( 10.0,
        Trace.Query_attempt { query = "qa"; attempt = 1; worker = 1; events = 2 } );
      (10.0, Trace.Phase_opened { id = 0; plan = "scan" });
      (20.0, Trace.Phase_closed { id = 0; read = 5; emitted = 5 });
      ( 30.0,
        Trace.Slo_violation
          { slo = "depth"; metric = "adp_server_queue_depth"; agg = "last";
            op = "<"; value = 3.0; bound = 1.0 } );
      ( 40.0,
        Trace.Slo_recovered
          { slo = "depth"; metric = "adp_server_queue_depth"; agg = "last";
            op = "<"; value = 0.0; bound = 1.0 } ) ]
  in
  let text = Format.asprintf "%a" Trace.explain events in
  let lines = String.split_on_char '\n' text in
  let has f = List.exists f lines in
  (* The two inner events render inside qa's lane; the lane closes when
     its block is exhausted. *)
  Alcotest.(check bool) "lane header" true
    (has (fun l ->
         contains l "query qa attempt 1 on worker 1"
         && contains l "2 re-stamped events"));
  Alcotest.(check bool) "lane prefix on inner events" true
    (has (fun l -> contains l "qa| phase 0 opened"));
  Alcotest.(check bool) "lane prefix on second inner event" true
    (has (fun l -> contains l "qa| phase 0 closed"));
  Alcotest.(check bool) "lane closed after block" true
    (has (fun l ->
         contains l "SLO depth VIOLATED"
         && not (contains l "qa| ")));
  Alcotest.(check bool) "recovery line" true
    (has (fun l -> contains l "SLO depth recovered"));
  Alcotest.(check bool) "lanes summary" true
    (has (fun l -> contains l "lanes: 1 query-attempt block"));
  Alcotest.(check bool) "slo summary" true
    (has (fun l -> contains l "slo: violations 1; recoveries 1"));
  (* Trace JSON round-trip for the three new event classes. *)
  List.iter
    (fun (at, ev) ->
      match Trace.of_json (Trace.to_json (at, ev)) with
      | Ok (at', ev') ->
        Alcotest.(check (float 0.0)) "stamp" at at';
        Alcotest.(check bool) ("round-trip " ^ Trace.event_name ev) true
          (ev = ev')
      | Error m -> Alcotest.fail m)
    events

(* ---------------- bench-diff shape gate ---------------- *)

let doc_of cells =
  { Bjson.bench = "t"; scale = 0.004;
    cells =
      List.map
        (fun (id, kind, value) -> { Bjson.id; kind; value })
        cells }

let test_benchdiff_shape_mismatch () =
  let baseline =
    doc_of
      [ ("alpha", Bjson.Count, 1.0); ("beta", Bjson.Time, 2.0);
        ("gamma", Bjson.Bool, 1.0) ]
  in
  let current =
    doc_of [ ("alpha", Bjson.Count, 1.0); ("delta", Bjson.Count, 3.0);
             ("zeta", Bjson.Count, 9.0) ]
  in
  (match Benchdiff.diff ~priors:[ baseline ] ~current () with
   | Ok _ -> Alcotest.fail "shape mismatch accepted"
   | Error m ->
     (* Sorted missing and extra cell names, distinct from a breach. *)
     Alcotest.(check bool) "mentions shape" true
       (contains m "shape mismatch");
     Alcotest.(check bool) "missing sorted" true
       (contains m "missing 2 cells: beta, gamma");
     Alcotest.(check bool) "extra sorted" true
       (contains m "extra 2 cells: delta, zeta"));
  (* So are a different bench id and a different scale. *)
  (match
     Benchdiff.diff ~priors:[ baseline ]
       ~current:{ baseline with Bjson.bench = "other" } ()
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bench id mismatch must be an error");
  (match
     Benchdiff.diff ~priors:[ baseline ]
       ~current:{ baseline with Bjson.scale = 0.1 } ()
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "scale mismatch must be an error");
  (* A genuine regression on an aligned shape is a breach, not an
     Error. *)
  let baseline = doc_of [ ("alpha", Bjson.Count, 1.0) ] in
  let current = doc_of [ ("alpha", Bjson.Count, 2.0) ] in
  match Benchdiff.diff ~priors:[ baseline ] ~current () with
  | Error m -> Alcotest.failf "regression misclassified as Error: %s" m
  | Ok o ->
    Alcotest.(check int) "one breach" 1 (List.length o.Benchdiff.o_breaches)

(* ---------------- bench history ---------------- *)

let with_history_dir k =
  let dir = "timeseries-test-history" in
  if Sys.file_exists dir then rm_rf dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> k dir)

let verdict ~priors current =
  match Benchdiff.diff ~priors ~current () with
  | Error _ -> "incomparable"
  | Ok o when o.Benchdiff.o_breaches <> [] -> "breach"
  | Ok _ -> "pass"

let test_bench_history () =
  with_history_dir (fun dir ->
      let run n t =
        { Bjson.bench = "hist"; scale = 0.004;
          cells =
            [ Bjson.flag "flag" true; Bjson.num "n" n; Bjson.time "elapsed" t ] }
      in
      let runs = [ run 5.0 1.0; run 5.0 1.02; run 5.0 0.98 ] in
      List.iteri
        (fun i d ->
          match Benchhistory.append ~dir d with
          | Ok seq -> Alcotest.(check int) "monotonic seq" (i + 1) seq
          | Error m -> Alcotest.fail m)
        runs;
      let file = Benchhistory.path ~dir ~bench:"hist" in
      let entries =
        match Benchhistory.load file with
        | Ok es -> es
        | Error m -> Alcotest.fail m
      in
      let priors = List.map (fun e -> e.Benchhistory.e_doc) entries in
      Alcotest.(check bool) "documents read back" true (priors = runs);
      (* Each history line is a Bjson document plus a seq field. *)
      let lines =
        List.filter (( <> ) "")
          (String.split_on_char '\n'
             (In_channel.with_open_bin file In_channel.input_all))
      in
      List.iteri
        (fun i line ->
          match Adp_obs.Json.parse line with
          | Error m -> Alcotest.fail m
          | Ok j ->
            Alcotest.(check (option int)) "seq field" (Some (i + 1))
              (Option.bind (Adp_obs.Json.member "seq" j) Adp_obs.Json.get_int);
            Alcotest.(check bool) "line is a Bjson document" true
              (Bjson.of_json j = Ok (List.nth runs i)))
        lines;
      let latest = List.nth runs 2 in
      Alcotest.(check string) "unchanged run passes" "pass"
        (verdict ~priors latest);
      (* Time cells gate against the median of the priors (1.0), not the
         latest run (0.98): +9% passes the history, +11% fails one prior. *)
      let drift = run 5.0 1.09 in
      Alcotest.(check string) "history median" "pass"
        (verdict ~priors drift);
      Alcotest.(check string) "latest prior" "breach"
        (verdict ~priors:[ latest ] drift);
      (* And the other way round: -11% from the median 1.0 breaches the
         history, naming the cell, while -9% from the latest 0.98
         passes one prior. *)
      let dip = run 5.0 0.89 in
      (match Benchdiff.diff ~priors ~current:dip () with
       | Ok { Benchdiff.o_breaches = [ line ]; _ } ->
         Alcotest.(check bool) "breach names elapsed" true
           (contains line "elapsed")
       | _ -> Alcotest.fail "history median: expected one breach");
      Alcotest.(check string) "latest prior, dip" "pass"
        (verdict ~priors:[ latest ] dip);
      (* Runs at another scale never enter the median: after a scale
         change, a run within tolerance of the new-scale prior passes
         even though the older, larger-scale runs are slower. *)
      let rescaled = List.map (fun d -> { d with Bjson.scale = 0.008 }) in
      let mixed = rescaled [ run 5.0 2.0; run 5.0 2.1 ] @ [ run 5.0 1.0 ] in
      Alcotest.(check string) "scale change, later run" "pass"
        (verdict ~priors:mixed (run 5.0 1.05));
      Alcotest.(check string) "scale change, old scale" "incomparable"
        (verdict ~priors:mixed (List.hd (rescaled [ run 5.0 2.0 ])));
      (* Drift inputs: the one-prior path (bench-diff) and the history
         path (bench-history --gate) must give the same verdict. *)
      let edit f = { latest with Bjson.cells = f latest.Bjson.cells } in
      let set id g =
        edit
          (List.map (fun (c : Bjson.cell) ->
               if c.Bjson.id = id then g c else c))
      in
      let cases =
        [ ( "NaN time cell", "breach",
            set "elapsed" (fun c -> { c with Bjson.value = Float.nan }) );
          ( "missing cell", "incomparable",
            edit (List.filter (fun (c : Bjson.cell) -> c.Bjson.id <> "n")) );
          ( "extra cell", "incomparable",
            edit (fun cs -> cs @ [ Bjson.count "m" 1 ]) );
          ( "changed kind", "breach",
            set "n" (fun c -> { c with Bjson.kind = Bjson.Time }) );
          ("changed scale", "incomparable", { latest with Bjson.scale = 0.008 });
          ( "changed count", "breach",
            set "n" (fun c -> { c with Bjson.value = 6.0 }) ) ]
      in
      List.iter
        (fun (name, expected, current) ->
          Alcotest.(check string) (name ^ ", one prior") expected
            (verdict ~priors:[ latest ] current);
          Alcotest.(check string) (name ^ ", history") expected
            (verdict ~priors current))
        cases;
      (* The render includes a sparkline row per cell of the newest
         entry. *)
      let rendered = Format.asprintf "%a" Benchhistory.render entries in
      List.iter
        (fun id ->
          Alcotest.(check bool) ("rendered " ^ id) true
            (contains rendered id))
        [ "flag"; "n"; "elapsed" ])

let suite =
  [ Alcotest.test_case "slo parse" `Quick test_slo_parse;
    Alcotest.test_case "slo monitor transitions" `Quick
      test_slo_monitor_transitions;
    Alcotest.test_case "recorder series and aggregates" `Quick
      test_recorder_series_and_aggregates;
    Alcotest.test_case "jsonl roundtrip and determinism" `Quick
      test_jsonl_roundtrip_and_determinism;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "with_labels has no leaks" `Quick
      test_with_labels_no_leaks;
    Alcotest.test_case "prometheus families" `Quick test_prometheus_families;
    Alcotest.test_case "serve sampling alignment" `Quick
      test_serve_sampling_alignment;
    Alcotest.test_case "serve telemetry zero perturbation" `Quick
      test_serve_zero_perturbation;
    Alcotest.test_case "explain lanes" `Quick test_explain_lanes;
    Alcotest.test_case "bench-diff shape mismatch" `Quick
      test_benchdiff_shape_mismatch;
    Alcotest.test_case "bench history" `Quick test_bench_history ]
