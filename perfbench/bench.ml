(* The repository benchmark: four end-to-end workloads over the ADP
   engine, each run single-threaded in this one process, with a separate
   traced run that breaks the wall time down by layer.  README.md in this
   directory defines every workload and metric.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0: set up (seven times, median reported), then run closed-loop
   passes with every observability hook off for about S seconds; the
   end-to-end metrics are medians over passes.  The answer oracle runs
   after the passes.
   --trace 1: set up, one untraced pass, one traced pass, then time the
   layers' public entry points from outside; the per-layer metrics come
   from both.  The last line of standard output is one JSON object. *)

open Adp_relation
open Adp_datagen
open Adp_exec
open Adp_core
open Adp_optimizer
open Adp_query
module Wallclock = Adp_obs.Wallclock
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Profile = Adp_obs.Profile
module Json = Adp_obs.Json
module Server = Adp_server.Server
module Script = Adp_server.Script
module Checkpoint = Adp_recovery.Checkpoint
module Selectivity = Adp_stats.Selectivity

let now = Wallclock.monotonic_s

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (List.sort Float.compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Median seconds per call of [f], repeated until [min_s] has passed. *)
let per_call ?(min_s = 0.05) f =
  let stop = now () +. min_s in
  let rec go acc n =
    let _, dt = timed (fun () -> Sys.opaque_identity (f ())) in
    if n >= 3 && now () >= stop then median (dt :: acc) else go (dt :: acc) (n + 1)
  in
  go [] 1

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec files_under path =
  if Sys.is_directory path then
    List.concat_map
      (fun f -> files_under (Filename.concat path f))
      (List.sort String.compare (Array.to_list (Sys.readdir path)))
  else [ path ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

(* One submitted query: the catalog and sources the engine sees. *)
type query = {
  id : string;
  spec : Workload.tpch_query;
  q : Logical.query;
  catalog : Catalog.t;
  sources : unit -> Source.t list;
  preagg : Optimizer.preagg_strategy;
}

(* The read-only observability a traced pass attaches. *)
type obs = {
  metrics : Metrics.t;
  profile : Profile.t;
  wall : Wallclock.t;
}

type answer = {
  a_id : string;
  a_result : Relation.t option;  (* None: failed, rejected or degraded *)
  a_learned : Selectivity.dump option;
}

type pass = {
  virtual_s : float;
  answers : answer list;  (* submission order *)
  events : (string * Trace.stamped list) list;  (* per query id; traced only *)
  server : Server.report option;
  reads : int;  (* source tuples delivered, re-reads after a resume included *)
}

type env = {
  queries : query list;  (* every submitted query, submission order *)
  datagen_s : float;
  run : obs option -> pass;
}

(* The corrective knobs of the paper's experiments (the bench harness's
   [corrective_config]): 20 ms polls, a 200-tuple observation guard and
   a 0.8 switch threshold. *)
let corrective =
  { Corrective.default_config with
    poll_interval = 2e4; min_leaf_seen = 200; switch_threshold = 0.8 }

let generate ~scale distribution seed =
  timed (fun () -> Tpch.generate { Tpch.scale; distribution; seed })

let make_query ?(with_cardinalities = true) ?(model = Source.Local)
    ?(preagg = Optimizer.No_preagg) ds spec =
  let q = Workload.query spec in
  { id = Workload.name spec; spec; q;
    catalog = Workload.catalog ~with_cardinalities ds q;
    sources = Workload.sources ~model ds q; preagg }

let complete ~degraded ~coverage result =
  if degraded <> None || coverage < 1.0 then None else Some result

(* A closed loop with one client: each query starts when the previous
   one has answered. *)
let closed_loop strategy (queries : (query * Plan.spec option) list) obs =
  let runs =
    List.map
      (fun (qr, initial_plan) ->
        let trace = Option.map (fun _ -> Trace.memory ()) obs in
        let o =
          Strategy.run ~preagg:qr.preagg ?initial_plan ?trace
            ?metrics:(Option.map (fun o -> o.metrics) obs)
            ?profile:(Option.map (fun o -> o.profile) obs)
            ?wall:(Option.map (fun o -> o.wall) obs)
            strategy qr.q qr.catalog ~sources:qr.sources
        in
        ( o.Strategy.report.Report.time_s,
          { a_id = qr.id;
            a_result =
              complete ~degraded:o.Strategy.report.Report.degraded_reason
                ~coverage:o.Strategy.report.Report.coverage o.Strategy.result;
            a_learned =
              Option.map
                (fun s -> s.Corrective.learned)
                o.Strategy.corrective_stats },
          (qr.id, Option.fold ~none:[] ~some:Trace.events trace) ))
      queries
  in
  { virtual_s = sum (fun (t, _, _) -> t) runs;
    answers = List.map (fun (_, a, _) -> a) runs;
    events = List.map (fun (_, _, e) -> e) runs;
    server = None;
    (* No faults and no resume: every source is read exactly once. *)
    reads =
      List.fold_left
        (fun acc (qr, _) ->
          List.fold_left (fun acc s -> acc + Source.cardinality s) acc (qr.sources ()))
        0 queries }

(* cqp-recover: the paper's headline path (§4.4, Figures 2-3).  No
   statistics, the documented pessimal starting plan (the costliest
   cross-product-free ordering under the true statistics), uniform data,
   local arrival.  SF 0.03, not the paper's 0.1: at 0.1 one pass fills a
   run, and one pass is too noisy.  Q5 and Q10A switch once and stitch
   up; Q3A keeps its plan. *)
let cqp_recover seed =
  let ds, datagen_s = generate ~scale:0.03 Tpch.Uniform seed in
  let queries =
    List.map
      (fun spec ->
        let qr = make_query ~with_cardinalities:false ds spec in
        let truth = Workload.catalog ~with_cardinalities:true ds qr.q in
        let bad = Optimizer.pessimal qr.q truth (Selectivity.create ()) in
        (qr, Some bad.Optimizer.spec))
      [ Workload.Q3A; Workload.Q5; Workload.Q10A ]
  in
  { queries = List.map fst queries; datagen_s;
    run = closed_loop (Strategy.Corrective corrective) queries }

(* preagg-stream: Figure 6's adjustable-window pre-aggregation under a
   static plan over bandwidth-limited sources on the Zipf-0.5 skewed
   data.  No polls, no switch, no stitch-up. *)
let preagg_stream seed =
  let ds, datagen_s = generate ~scale:0.1 (Tpch.Skewed 0.5) seed in
  let preagg =
    Optimizer.Force (Plan.Windowed { initial = 64; max_window = 65536 })
  in
  let queries =
    List.map
      (fun spec ->
        (make_query ~model:(Source.Bandwidth 600_000.0) ~preagg ds spec, None))
      [ Workload.Q3A; Workload.Q10A ]
  in
  { queries = List.map fst queries; datagen_s;
    run = closed_loop Strategy.Static queries }

(* reopt-poll: the no-statistics catalog with 500 µs polls, so the
   re-optimizer does most of the work (Q5 joins six relations). *)
let reopt_poll seed =
  let ds, datagen_s = generate ~scale:0.01 Tpch.Uniform seed in
  let queries =
    List.map
      (fun spec -> (make_query ~with_cardinalities:false ds spec, None))
      [ Workload.Q5; Workload.Q10A ]
  in
  { queries = List.map fst queries; datagen_s;
    run =
      closed_loop
        (Strategy.Corrective { corrective with poll_interval = 500.0 })
        queries }

(* serve-recover: an open loop on the server's virtual clock.  Later
   resubmissions start warm from the shared selectivity store.  Each kill
   takes a worker down mid-query; the supervisor reclaims the query and
   runs it again from its last checkpoint, or from the start when it had
   written none. *)
let serve_script =
  "at 0 submit q1 Q3A\n\
   at 0 submit q2 Q10A\n\
   at 0 kill q2 tuples:20000\n\
   at 0.05 submit q3 Q5\n\
   at 0.05 submit q4 Q3\n\
   at 0.3 submit q5 Q10\n\
   at 0.3 kill q5 tuples:15000\n\
   at 0.6 submit q6 Q3A\n\
   at 0.6 submit q7 Q5\n\
   at 1.0 submit q8 Q10A\n\
   at 1.0 submit q9 Q3"

let ckpt_dir = ".perfbench_ckpt"

(* The inner events of every kept attempt, grouped by query id: the
   server trace precedes each attempt's block with a [Query_attempt]
   marker giving its length. *)
let attempts_by_query events =
  let rec take n acc l =
    if n = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: r -> take (n - 1) (x :: acc) r
  in
  let rec go acc = function
    | [] -> acc
    | (_, Trace.Query_attempt { query; events = n; _ }) :: rest ->
      let mine, rest = take n [] rest in
      let prev = Option.value ~default:[] (List.assoc_opt query acc) in
      go ((query, prev @ mine) :: List.remove_assoc query acc) rest
    | _ :: rest -> go acc rest
  in
  List.rev (go [] events)

(* Every source a serve opens counts its deliveries, so tuples read again
   by a reclaimed query count twice, as the engine reads them.  Workers
   checkpoint at phase boundaries only: superseded checkpoints are never
   pruned, and a tuple cadence writes hundreds of MB per serve. *)
let serve_once ~resolver ~script obs =
  let reads = ref 0 in
  let resolver spec =
    let r = resolver spec in
    { r with
      Server.r_sources =
        (fun () ->
          let srcs = r.Server.r_sources () in
          List.iter (fun s -> Source.observe s (fun _ -> incr reads)) srcs;
          srcs) }
  in
  let cfg =
    { (Server.default_config ~checkpoint_dir:ckpt_dir) with
      Server.workers = 2; checkpoint_every = 0 }
  in
  let cfg =
    match obs with
    | None -> cfg
    | Some o ->
      { cfg with
        Server.trace = Trace.memory (); metrics = Some o.metrics;
        corrective =
          { cfg.Server.corrective with
            Corrective.profile = Some o.profile; wall = Some o.wall } }
  in
  let r = Server.run cfg resolver script in
  let answers =
    List.map
      (fun (qr : Server.query_report) ->
        let result, learned =
          match qr.Server.qr_outcome with
          | Server.Done { result; stats } ->
            ( complete ~degraded:stats.Corrective.degraded_reason
                ~coverage:stats.Corrective.coverage result,
              Some stats.Corrective.learned )
          | Server.Failed _ | Server.Cancelled | Server.Rejected _ -> (None, None)
        in
        { a_id = qr.Server.qr_id; a_result = result; a_learned = learned })
      r.Server.r_queries
  in
  (* The server clock stops at its last dispatcher poll, which falls on
     the poll grid whatever the data; the last answer's time moves with
     the work. *)
  let last_answer =
    List.fold_left
      (fun acc (qr : Server.query_report) -> Float.max acc qr.Server.qr_finished_s)
      0.0 r.Server.r_queries
  in
  { virtual_s = last_answer; answers;
    events = attempts_by_query (Trace.events cfg.Server.trace);
    server = Some r; reads = !reads }

let serve_recover seed =
  let ds, datagen_s = generate ~scale:0.02 Tpch.Uniform seed in
  let resolver = Server.tpch_resolver ds in
  let script =
    match Script.parse serve_script with
    | Ok s -> s
    | Error ds -> failwith (Adp_analysis.Diagnostic.to_string ds)
  in
  let queries =
    List.filter_map
      (function
        | _, Script.Submit { qid; spec; _ } ->
          let w =
            List.find
              (fun w -> Workload.name w = spec)
              [ Workload.Q3; Workload.Q3A; Workload.Q10; Workload.Q10A;
                Workload.Q5 ]
          in
          let r = resolver spec in
          Some
            { id = qid; spec = w; q = r.Server.r_query;
              catalog = r.Server.r_catalog; sources = r.Server.r_sources;
              preagg = Optimizer.No_preagg }
        | _ -> None)
      script
  in
  { queries; datagen_s;
    run =
      (fun obs -> serve_once ~resolver ~script obs) }

let workloads =
  [ ("cqp-recover", cqp_recover); ("preagg-stream", preagg_stream);
    ("reopt-poll", reopt_poll); ("serve-recover", serve_recover) ]

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)
(* ------------------------------------------------------------------ *)

let oracle_of (queries : query list) =
  List.map (fun qr -> (qr.id, Oracle.answer qr.q ~sources:qr.sources)) queries

(* Per query, whether it failed, was rejected, degraded, or answered
   differently from the oracle. *)
let wrong oracle pass =
  List.map
    (fun a ->
      match a.a_result with
      | None -> true
      | Some r -> not (Oracle.same_bag r (List.assoc a.a_id oracle)))
    pass.answers

let count_true l = List.length (List.filter Fun.id l)
let failures oracle pass = count_true (wrong oracle pass)

(* Per query, whether two passes of the same queries answered alike. *)
let agree p1 p2 =
  List.map2
    (fun a b ->
      match a.a_result, b.a_result with
      | Some x, Some y -> Relation.equal_bag x y
      | None, None -> true
      | _ -> false)
    p1.answers p2.answers

let same_answers p1 p2 =
  List.length p1.answers = List.length p2.answers && List.for_all Fun.id (agree p1 p2)

(* ------------------------------------------------------------------ *)
(* Per-layer attribution                                              *)
(* ------------------------------------------------------------------ *)

type layer = Scan | Join | Preagg | Stitch | Bucket of string | Other

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Span names are [Plan.pp_spec] renderings: scans are bare relation
   names or σ[...](rel), joins contain ⋈, pre-aggregations start with γ.
   Stitch-up spans live in the "stitch-up" phase (scoped "q:<id>:" in a
   serve).  Parenthesised names without ⋈ are engine buckets. *)
let layer_of ~phase ~node =
  if String.ends_with ~suffix:"stitch-up" phase then Stitch
  else if node = "(driver wait)" || node = "(unattributed)" then Bucket node
  else if String.starts_with ~prefix:"γ" node then Preagg
  else if contains node "⋈" || String.starts_with ~prefix:"comp-join" node then
    Join
  else if String.starts_with ~prefix:"(" node then Other
  else Scan

type cell = {
  mutable wall_s : float;
  mutable words : float;
  mutable virt_us : float;
  mutable t_in : int;
  mutable t_out : int;
  mutable probes : int;
  mutable builds : int;
}

let layer_cells (o : obs) =
  let cells = ref [] in
  let cell l =
    match List.assoc_opt l !cells with
    | Some c -> c
    | None ->
      let c =
        { wall_s = 0.0; words = 0.0; virt_us = 0.0; t_in = 0; t_out = 0;
          probes = 0; builds = 0 }
      in
      cells := (l, c) :: !cells;
      c
  in
  List.iter
    (fun (i : Wallclock.info) ->
      let c = cell (layer_of ~phase:i.Wallclock.phase ~node:i.Wallclock.node) in
      c.wall_s <- c.wall_s +. i.Wallclock.self_s;
      c.words <- c.words +. i.Wallclock.minor_words)
    (Wallclock.spans o.wall);
  List.iter
    (fun (i : Profile.info) ->
      let c = cell (layer_of ~phase:i.Profile.phase ~node:i.Profile.node) in
      c.virt_us <- c.virt_us +. i.Profile.self_us;
      c.t_in <- c.t_in + i.Profile.tuples_in;
      c.t_out <- c.t_out + i.Profile.tuples_out;
      c.probes <- c.probes + i.Profile.probes;
      c.builds <- c.builds + i.Profile.builds)
    (Profile.spans o.profile);
  cell

let count_events pred evs = List.length (List.filter (fun (_, e) -> pred e) evs)

(* Sink.feed over the oracle's pre-grouping join result: ns per tuple. *)
let sink_ns_per_tuple (queries : query list) =
  let distinct =
    List.fold_left
      (fun acc qr -> if List.exists (fun q -> q.spec = qr.spec) acc then acc else qr :: acc)
      [] queries
  in
  let runs =
    List.map
      (fun qr ->
        let joined = Oracle.joined qr.q ~sources:qr.sources in
        let schema = Relation.schema joined in
        let tuples = Relation.to_list joined in
        let rec chunks acc cur n = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | t :: r ->
            if n = 256 then chunks (List.rev cur :: acc) [ t ] 1 r
            else chunks acc (t :: cur) (n + 1) r
        in
        let batches = chunks [] [] 0 tuples in
        let dt =
          per_call ~min_s:0.2 (fun () ->
              let sink = Sink.create (Ctx.create ()) qr.q ~canonical:schema in
              List.iter (fun b -> Sink.feed sink ~from:schema b) batches;
              Sink.result sink)
        in
        (dt, List.length tuples))
      distinct
  in
  ratio (sum fst runs *. 1e9) (float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 runs))

let parse_us (queries : query list) =
  1e6
  *. median
       (List.map
          (fun qr ->
            per_call (fun () ->
                Sql_parser.parse ~schema_of:Tpch.schema_of (Workload.sql qr.spec)))
          queries)

let optimizer_cells (queries : query list) (traced : pass) =
  let initial =
    List.map
      (fun qr ->
        per_call (fun () ->
            Optimizer.optimize ~preagg:qr.preagg qr.q qr.catalog
              (Selectivity.create ())))
      queries
  in
  (* Per polling query: its polls, and the optimizer-layer calls of one
     unguarded poll timed from outside with the statistics the query
     learned: estimator set-up, the running plan's cost-to-go, and the
     re-optimization itself. *)
  let polled =
    List.filter_map
      (fun (qr, a) ->
        let evs = Option.value ~default:[] (List.assoc_opt qr.id traced.events) in
        let polls = count_events (function Trace.Reopt_poll _ -> true | _ -> false) evs in
        match a.a_learned with
        | Some learned when polls > 0 ->
          let dt =
            per_call (fun () ->
                let sels = Selectivity.load learned in
                let est = Cardinality.create qr.q qr.catalog sels in
                let best = Optimizer.optimize ~preagg:qr.preagg qr.q qr.catalog sels in
                Cost.query_cost Cost_model.default est best.Optimizer.spec)
          in
          Printf.eprintf "%s: %d polls, %d switches, %.3f ms per poll replay\n" qr.id
            polls
            (count_events (function Trace.Plan_switch _ -> true | _ -> false) evs)
            (1e3 *. dt);
          Some (polls, dt)
        | Some _ | None -> None)
      (List.combine queries traced.answers)
  in
  let polls = List.fold_left (fun a (n, _) -> a + n) 0 polled in
  let poll_s = sum (fun (n, dt) -> float_of_int n *. dt) polled in
  (median initial, polls, poll_s)

let checkpoint_cells () =
  let files =
    if Sys.file_exists ckpt_dir then
      List.filter (fun f -> Filename.check_suffix f ".adpckpt") (files_under ckpt_dir)
    else []
  in
  let scratch = Filename.concat ckpt_dir "resave" in
  let timings =
    List.filter_map
      (fun f ->
        match timed (fun () -> Checkpoint.load f) with
        | Error _, _ -> None
        | Ok t, load ->
          let _, save = timed (fun () -> Checkpoint.save ~dir:scratch t) in
          Some (load, save))
      files
  in
  rm_rf ckpt_dir;
  (List.length files, median (List.map fst timings), median (List.map snd timings))

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let setup_reps = 7

(* Set up [setup_reps] times, keeping only the last environment alive;
   report the median set-up and data-generation times. *)
let setup make seed =
  let rec go n times gens =
    Gc.full_major ();
    let env, dt = timed (fun () -> make seed) in
    let times = dt :: times and gens = env.datagen_s :: gens in
    if n = 1 then (env, median times, median gens) else go (n - 1) times gens
  in
  go setup_reps [] []

(* One timed pass, in a fresh checkpoint directory that is removed after
   it.  Each pass starts from a collected heap, so no pass pays for the
   garbage of the one before. *)
let timed_pass env obs =
  rm_rf ckpt_dir;
  Sys.mkdir ckpt_dir 0o755;
  Gc.full_major ();
  let p = timed (fun () -> env.run obs) in
  rm_rf ckpt_dir;
  p

(* Every pass is checked against the first; the first is checked against
   the oracle after the peak heap is read, so the oracle's own heap is
   not in [peak_heap_mb]. *)
let end_to_end env ~setup_s ~seconds gc =
  let start = now () in
  let first, first_s = timed_pass env None in
  let rec go acc =
    let walls = List.map (fun (_, w, _) -> w) acc in
    if now () -. start +. median walls > seconds then List.rev acc
    else
      let p, dt = timed_pass env None in
      go (((p.virtual_s, p.reads), dt, agree first p) :: acc)
  in
  let passes = go [ ((first.virtual_s, first.reads), first_s, agree first first) ] in
  let peak =
    float_of_int ((Wallclock.gc_totals gc).Wallclock.g_top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  prerr_endline
    ("pass walls (s): "
    ^ String.concat " " (List.map (fun (_, w, _) -> Printf.sprintf "%.3f" w) passes));
  let repeats = List.map (fun (v, _, _) -> v) passes in
  let virtual_s, reads = List.hd repeats in
  let wall_s = median (List.map (fun (_, w, _) -> w) passes) in
  let first_wrong = wrong (oracle_of env.queries) first in
  let failed =
    List.fold_left
      (fun a (_, _, same) ->
        a + count_true (List.map2 (fun s w -> (not s) || w) same first_wrong))
      0 passes
  in
  let deterministic = List.for_all (fun v -> v = List.hd repeats) repeats in
  if not deterministic then
    prerr_endline "virtual_s or the tuples read differ between passes";
  ( deterministic && failed = 0,
    List.length passes * List.length env.queries,
    failed,
    [ m "setup_s" "s" setup_s; m "wall_s" "s" wall_s;
      m "tuples_per_s" "1/s" (float_of_int reads /. wall_s);
      m "virtual_s" "s" virtual_s; m "peak_heap_mb" "MB" peak ] )

let per_layer env ~datagen_s =
  let oracle = oracle_of env.queries in
  let bare, bare_s = timed_pass env None in
  rm_rf ckpt_dir;
  Sys.mkdir ckpt_dir 0o755;
  Gc.full_major ();
  let o =
    { metrics = Metrics.create (); profile = Profile.create ();
      wall = Wallclock.create () }
  in
  (* The traced pass keeps its checkpoint files for the load/save
     timings; [checkpoint_cells] removes them. *)
  let traced, traced_s = timed (fun () -> env.run (Some o)) in
  let ckpt_files, load_s, save_s = checkpoint_cells () in
  let failed = failures oracle bare + failures oracle traced in
  let unperturbed =
    bare.virtual_s = traced.virtual_s && bare.reads = traced.reads
    && same_answers bare traced
  in
  if not unperturbed then prerr_endline "traced pass differs from untraced pass";
  let tuples = traced.reads in
  let cell = layer_cells o in
  let scan = cell Scan and join = cell Join and preagg = cell Preagg in
  let stitch = cell Stitch and other = cell Other in
  let wait = cell (Bucket "(driver wait)") in
  let unattributed = cell (Bucket "(unattributed)") in
  let initial_s, polls, poll_s = optimizer_cells env.queries traced in
  let all_events = List.concat_map snd traced.events in
  let stitch_end f =
    List.fold_left
      (fun acc (_, e) ->
        match e with
        | Trace.Stitchup_end { output; reused; recomputed } ->
          acc + f ~output ~reused ~recomputed
        | _ -> acc)
      0 all_events
  in
  let reused = stitch_end (fun ~output:_ ~reused ~recomputed:_ -> reused) in
  let recomputed = stitch_end (fun ~output:_ ~reused:_ ~recomputed -> recomputed) in
  let ckpt_bytes = Metrics.counter_total o.metrics "adp_checkpoint_bytes_total" in
  let per_tuple x n = ratio x (float_of_int n) in
  let layered_s =
    scan.wall_s +. join.wall_s +. preagg.wall_s +. stitch.wall_s +. other.wall_s
  in
  let server f = match traced.server with Some r -> f r | None -> 0.0 in
  let metrics =
    [ m "sql.parse_us" "us" (parse_us env.queries);
      m "datagen.s" "s" datagen_s;
      m "optimizer.initial_us" "us" (1e6 *. initial_s);
      m "optimizer.poll_us" "us" (1e6 *. ratio poll_s (float_of_int polls));
      m "optimizer.polls" "count" (float_of_int polls);
      m "optimizer.switches" "count"
        (float_of_int
           (count_events (function Trace.Plan_switch _ -> true | _ -> false) all_events));
      m "optimizer.share" "ratio" (ratio poll_s bare_s);
      m "driver.tuples" "count" (float_of_int tuples);
      m "driver.wait_share" "ratio"
        (ratio (Float.max 0.0 (wait.wall_s -. poll_s)) traced_s);
      m "plan.push_ns_per_tuple" "ns" (per_tuple ((scan.wall_s +. join.wall_s) *. 1e9) tuples);
      m "plan.push_words_per_tuple" "words" (per_tuple (scan.words +. join.words) tuples);
      m "scan.ns_per_tuple" "ns" (per_tuple (scan.wall_s *. 1e9) scan.t_in);
      m "join.ns_per_tuple" "ns" (per_tuple (join.wall_s *. 1e9) join.probes);
      m "join.words_per_tuple" "words" (per_tuple join.words join.probes);
      m "join.probes" "count" (float_of_int join.probes);
      m "join.builds" "count" (float_of_int join.builds);
      m "preagg.ns_per_tuple" "ns" (per_tuple (preagg.wall_s *. 1e9) preagg.t_in);
      m "preagg.reduction" "ratio"
        (ratio (float_of_int preagg.t_in) (float_of_int preagg.t_out));
      m "stitchup.s" "s" stitch.wall_s;
      m "stitchup.out_tuples" "count" (float_of_int (stitch_end (fun ~output ~reused:_ ~recomputed:_ -> output)));
      m "stitchup.reuse_ratio" "ratio"
        (ratio (float_of_int reused) (float_of_int (reused + recomputed)));
      m "sink.ns_per_tuple" "ns" (sink_ns_per_tuple env.queries);
      m "checkpoint.files" "count"
        (float_of_int (Metrics.counter_total o.metrics "adp_checkpoints_total"));
      m "checkpoint.mb_written" "MB" (float_of_int ckpt_bytes /. 1e6);
      m "checkpoint.bytes_per_tuple" "B" (per_tuple (float_of_int ckpt_bytes) tuples);
      m "checkpoint.save_ms" "ms" (1e3 *. save_s);
      m "checkpoint.load_ms" "ms" (1e3 *. load_s);
      m "server.polls" "count" (server (fun r -> float_of_int r.Server.r_polls));
      m "server.busy_poll_ratio" "ratio"
        (server (fun r ->
             ratio (float_of_int r.Server.r_busy_polls) (float_of_int r.Server.r_polls)));
      m "server.reclaims" "count" (server (fun r -> float_of_int r.Server.r_reclaims));
      m "server.warm_signatures" "count"
        (server (fun r ->
             float_of_int
               (List.fold_left
                  (fun a q -> a + q.Server.qr_warm_signatures)
                  0 r.Server.r_queries)));
      m "fidelity.scan" "ns/us" (ratio (scan.wall_s *. 1e9) scan.virt_us);
      m "fidelity.join" "ns/us" (ratio (join.wall_s *. 1e9) join.virt_us);
      m "fidelity.preagg" "ns/us" (ratio (preagg.wall_s *. 1e9) preagg.virt_us);
      m "trace.overhead" "ratio" (ratio traced_s bare_s);
      m "trace.unattributed_share" "ratio"
        (ratio (traced_s -. layered_s -. wait.wall_s) traced_s) ]
  in
  Printf.eprintf
    "traced %.3fs = scan %.3f + join %.3f + preagg %.3f + stitch-up %.3f + \
     other spans %.3f + driver wait %.3f (re-optimizer replay %.3f) + \
     (unattributed) %.3f + outside the recorder %.3f; untraced %.3fs; %d \
     checkpoint files on disk\n%!"
    traced_s scan.wall_s join.wall_s preagg.wall_s stitch.wall_s other.wall_s
    wait.wall_s poll_s unattributed.wall_s
    (traced_s -. layered_s -. wait.wall_s -. unattributed.wall_s)
    bare_s ckpt_files;
  (unperturbed && failed = 0, 2 * List.length env.queries, failed, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of the four workloads");
      ("--seed", Arg.Set_int seed, "N data seed");
      ("--seconds", Arg.Set_float seconds, "S how long the passes run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let gc = Wallclock.create () in
  let env, setup_s, datagen_s = setup make !seed in
  let correct, attempted, failed, metrics =
    if !trace = 0 then end_to_end env ~setup_s ~seconds:!seconds gc
    else per_layer env ~datagen_s
  in
  Printf.printf "workload %s seed %d trace %d\n" !workload !seed !trace;
  List.iter (fun x -> Printf.printf "  %-28s %16.6f %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "  %-28s %9d / %-6d count\n" "failed_queries" failed attempted;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     ( x.name,
                       Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ] ))
                   metrics) ) ]))
