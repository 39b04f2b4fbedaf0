(* Resource governance: deadlines, memory ceilings, circuit breakers and
   server-level overload protection, all on the virtual clock, feeding
   BENCH_governance.json:

   - a deadline sweep over the SPJ join (no aggregation, so partial input
     yields a subset answer): full run, then 50% and 25% budgets —
     checking each degraded run exits cleanly with a subset-multiset of
     the full answer, monotone coverage, and a bit-identical repeat;
   - a hard memory ceiling on the same query — degradation by footprint
     instead of clock;
   - a flapping source behind a circuit breaker: the breaker trips,
     probes, recovers, and the run still delivers the complete answer
     bit-identically to the fault-free run;
   - an oversubscribed one-worker server with class quotas, an unknown
     class, and an expired deadline — checking quota rejects, deadline
     shedding, an in-flight degradation, and that the fully-observed
     serve run's view equals the bare one (zero perturbation). *)

open Adp_relation
open Adp_exec
open Adp_query
open Bench_common
module Corrective = Adp_core.Corrective
module Report = Adp_core.Report
module Server = Adp_server.Server
module Script = Adp_server.Script
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Diagnostic = Adp_analysis.Diagnostic

let spj_sql =
  "SELECT orders.o_orderkey, lineitem.l_quantity FROM orders, lineitem \
   WHERE orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderdate < \
   DATE '1995-03-15'"

let spj_query = lazy (Sql_parser.parse ~schema_of:Adp_datagen.Tpch.schema_of spj_sql)

(* Bandwidth-limited sources so a deadline lands mid-stream, not between
   the last tuple and the sink. *)
let spj_run ?(config = corrective_config) ?(inject = fun _ -> ()) () =
  let ds = Lazy.force uniform in
  let q = Lazy.force spj_query in
  let catalog = Workload.catalog ds q in
  let sources =
    Workload.sources ~model:(Source.Bandwidth 20_000.0) ds q ()
  in
  List.iter inject sources;
  let result, stats = Corrective.run ~config q catalog sources in
  (Relation.to_list result, stats)

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

let same_rows a b =
  List.length a = List.length b && List.for_all2 Tuple.equal a b

(* ---------------- deadline sweep ---------------- *)

let run_deadlines () =
  let full_rows, full = spj_run () in
  let full_s = full.Corrective.total_time /. 1e6 in
  Printf.printf "full SPJ run: %d rows in %s\n" (List.length full_rows)
    (seconds full_s);
  let degrade frac =
    let config =
      { corrective_config with
        Corrective.deadline = Some (frac *. full.Corrective.total_time) }
    in
    let rows, stats = spj_run ~config () in
    let subset = bag_subset rows full_rows in
    Printf.printf
      "  deadline %.0f%%: %d rows, coverage %.1f%%, reason %s, %s\n"
      (100.0 *. frac) (List.length rows)
      (100.0 *. stats.Corrective.coverage)
      (Option.value ~default:"none" stats.Corrective.degraded_reason)
      (if subset then "subset of the full answer" else "NOT A SUBSET");
    (rows, stats, subset)
  in
  let rows50, st50, sub50 = degrade 0.5 in
  let rows25, st25, sub25 = degrade 0.25 in
  let rows50b, st50b, _ = degrade 0.5 in
  let repeat_identical =
    same_rows rows50 rows50b
    && st50.Corrective.total_time = st50b.Corrective.total_time
  in
  (full_rows, full_s, rows50, st50, sub50, rows25, st25, sub25,
   repeat_identical)

(* ---------------- memory ceiling ---------------- *)

let run_ceiling full_rows =
  let config =
    { corrective_config with Corrective.memory_ceiling = Some 400 }
  in
  let rows, stats = spj_run ~config () in
  let subset = bag_subset rows full_rows in
  Printf.printf
    "memory ceiling 400: %d rows, coverage %.1f%%, reason %s, %s\n"
    (List.length rows)
    (100.0 *. stats.Corrective.coverage)
    (Option.value ~default:"none" stats.Corrective.degraded_reason)
    (if subset then "subset of the full answer" else "NOT A SUBSET");
  (rows, stats, subset)

(* ---------------- circuit breaker ---------------- *)

let breaker_policy =
  { Breaker.window_s = 60.0; failure_threshold = 2; cooldown_s = 1.0;
    probe_jitter = 0.1; seed = 11 }

let breaker_retry =
  { Retry.default_policy with
    Retry.timeout_s = 0.2; max_retries = 8; backoff_initial_s = 0.1;
    backoff_multiplier = 2.0; jitter = 0.0 }

let run_breaker full_rows =
  let config =
    { corrective_config with
      Corrective.retry = breaker_retry; breaker = Some breaker_policy }
  in
  let inject s =
    if Source.name s = "lineitem" then
      Source.inject s
        (Source.Disconnect { after_tuples = 500; rejoin_after_s = Some 2.0 })
  in
  let rows, stats = spj_run ~config ~inject () in
  let identical = same_rows (List.sort Tuple.compare rows)
      (List.sort Tuple.compare full_rows) in
  Printf.printf
    "breaker: %d trip(s), %d retr%s, coverage %.1f%%, answer %s the \
     fault-free run\n"
    stats.Corrective.breaker_trips stats.Corrective.retries
    (if stats.Corrective.retries = 1 then "y" else "ies")
    (100.0 *. stats.Corrective.coverage)
    (if identical then "bit-identical to" else "DIVERGED from");
  (stats, identical)

(* ---------------- server overload ---------------- *)

let ckpt_root = "_bench_governance_ckpt"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let resolver = lazy (Server.tpch_resolver (Lazy.force uniform))

let serve ?(config = fun c -> c) text =
  if Sys.file_exists ckpt_root then rm_rf ckpt_root;
  Sys.mkdir ckpt_root 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ckpt_root then rm_rf ckpt_root)
    (fun () ->
      let cfg = config (Server.default_config ~checkpoint_dir:ckpt_root) in
      let script =
        match Script.parse text with
        | Ok s -> s
        | Error ds -> failwith (Diagnostic.to_string ds)
      in
      Server.run cfg (Lazy.force resolver) script)

let q3_duration_s =
  lazy
    (let r = (Lazy.force resolver) "Q3" in
     let cfg =
       (Server.default_config ~checkpoint_dir:"unused").Server.corrective
     in
     let _, stats =
       Corrective.run ~config:cfg r.Server.r_query r.Server.r_catalog
         (r.Server.r_sources ())
     in
     stats.Corrective.total_time /. 1e6)

let overload_script () =
  let d = Lazy.force q3_duration_s in
  let t i = d *. 0.02 *. float_of_int i in
  Printf.sprintf
    "at 0 submit busy Q3\n\
     at %.6f submit b1 class=batch Q3\n\
     at %.6f submit b2 class=batch Q3\n\
     at %.6f submit i1 class=interactive Q3\n\
     at %.6f submit b3 class=batch Q3\n\
     at %.6f submit p1 class=premium Q3\n\
     at %.6f submit doomed deadline=%.6f Q3\n"
    (t 1) (t 2) (t 3) (t 4) (t 5) (t 6) (d *. 0.05)

let run_overload ~observed =
  let trace = if observed then Trace.memory () else Trace.null in
  let metrics = if observed then Some (Metrics.create ()) else None in
  serve (overload_script ())
    ~config:(fun c ->
      { c with
        Server.workers = 1;
        class_quotas = [ ("interactive", 2); ("batch", 2) ];
        memory_budget = Some 100_000; trace; metrics })

(* A dispatched query whose deadline hits mid-execution finishes as a
   partial answer instead of being shed or failed. *)
let run_degrade_serve () =
  let d = Lazy.force q3_duration_s in
  let r =
    serve
      (Printf.sprintf "at 0 submit slow deadline=%.6f Q3" (d *. 0.3))
      ~config:(fun c -> { c with Server.workers = 1 })
  in
  match r.Server.r_queries with
  | [ { Server.qr_outcome = Server.Done { stats; _ }; _ } ] ->
    stats.Corrective.degraded_reason = Some "deadline"
    && stats.Corrective.coverage < 1.0
  | _ -> false

let run_server () =
  let plain = run_overload ~observed:false in
  let observed = run_overload ~observed:true in
  let unperturbed = Server.view plain = Server.view observed in
  let reason qid =
    match
      List.find_opt (fun q -> q.Server.qr_id = qid) plain.Server.r_queries
    with
    | Some { Server.qr_outcome = Server.Rejected r; _ } -> r
    | _ -> "-"
  in
  let degraded = run_degrade_serve () in
  Printf.printf
    "overload: %d done, %d rejected (%d shed); b3 %s, p1 %s, doomed %s; \
     in-flight degradation %s; observed view %s the bare one\n"
    plain.Server.r_done plain.Server.r_rejected plain.Server.r_shed
    (reason "b3") (reason "p1") (reason "doomed")
    (if degraded then "seen" else "MISSING")
    (if unperturbed then "identical to" else "DIVERGED from");
  (plain, unperturbed, degraded,
   reason "b3" = "class-quota:batch"
   && reason "p1" = "unknown-class:premium"
   && reason "doomed" = "deadline-shed")

let run () =
  Printf.printf
    "governance scenarios at scale %g: deadline sweep, memory ceiling, \
     circuit breaker, server overload.\n"
    scale;
  let full_rows, full_s, rows50, st50, sub50, rows25, st25, sub25,
      repeat_identical =
    run_deadlines ()
  in
  let ceil_rows, ceil_st, ceil_subset = run_ceiling full_rows in
  let brk_st, brk_identical = run_breaker full_rows in
  let server, unperturbed, degraded, rejects_named = run_server () in
  Report.table ~title:"Resource governance"
    ~header:[ "scenario"; "rows"; "coverage"; "signal" ]
    [ [ "full"; string_of_int (List.length full_rows); "100.0%";
        seconds full_s ];
      [ "deadline 50%"; string_of_int (List.length rows50);
        Printf.sprintf "%.1f%%" (100.0 *. st50.Corrective.coverage);
        (if sub50 then "subset" else "NOT SUBSET") ];
      [ "deadline 25%"; string_of_int (List.length rows25);
        Printf.sprintf "%.1f%%" (100.0 *. st25.Corrective.coverage);
        (if sub25 then "subset" else "NOT SUBSET") ];
      [ "ceiling 400"; string_of_int (List.length ceil_rows);
        Printf.sprintf "%.1f%%" (100.0 *. ceil_st.Corrective.coverage);
        (if ceil_subset then "subset" else "NOT SUBSET") ];
      [ "breaker"; "-"; "100.0%";
        Printf.sprintf "%d trip(s), %s" brk_st.Corrective.breaker_trips
          (if brk_identical then "bit-identical" else "diverged") ];
      [ "overload"; string_of_int server.Server.r_done; "-";
        Printf.sprintf "%d rejected, %d shed" server.Server.r_rejected
          server.Server.r_shed ] ];
  Bjson.emit ~bench:"governance"
    ([ Bjson.count "full-rows" (List.length full_rows);
      Bjson.time "full-time" full_s;
      Bjson.count "deadline50-rows" (List.length rows50);
      Bjson.num "deadline50-coverage" st50.Corrective.coverage;
      Bjson.flag "deadline50-subset" sub50;
      Bjson.flag "deadline50-degraded"
        (st50.Corrective.degraded_reason = Some "deadline");
      Bjson.count "deadline25-rows" (List.length rows25);
      Bjson.num "deadline25-coverage" st25.Corrective.coverage;
      Bjson.flag "deadline25-subset" sub25;
      Bjson.flag "deadline-monotone"
        (List.length rows25 <= List.length rows50
         && st25.Corrective.coverage <= st50.Corrective.coverage);
      Bjson.flag "deadline-repeat-identical" repeat_identical;
      Bjson.count "ceiling-rows" (List.length ceil_rows);
      Bjson.flag "ceiling-subset" ceil_subset;
      Bjson.flag "ceiling-degraded"
        (ceil_st.Corrective.degraded_reason = Some "memory");
      Bjson.count "breaker-trips" brk_st.Corrective.breaker_trips;
      Bjson.count "breaker-retries" brk_st.Corrective.retries;
      Bjson.flag "breaker-bit-identical" brk_identical;
      Bjson.count "overload-done" server.Server.r_done;
      Bjson.count "overload-rejected" server.Server.r_rejected;
      Bjson.count "overload-shed" server.Server.r_shed;
      Bjson.flag "overload-rejects-named" rejects_named;
      Bjson.flag "overload-degraded-in-flight" degraded;
      Bjson.flag "zero-perturbation" unperturbed ])
