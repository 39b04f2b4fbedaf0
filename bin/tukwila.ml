(* Tukwila ADP command-line interface.

   Subcommands:
     generate   print rows of a generated TPC-H-style table
     plan       show the optimizer's plan for a SQL query
     query      execute a SQL query under a chosen adaptive strategy
                (--trace/--metrics attach observability sinks)
     explain    parse a SQL query and print its logical structure, or
                replay a recorded JSONL trace as a decision timeline
     check      statically analyze a query/plan without executing it
     profile    EXPLAIN-ANALYZE-style run: per-node virtual time and
                tuple counts, estimate-vs-actual calibration, blame
     serve      run a scripted multi-query workload through the
                worker-pool server
     bench-diff compare a BENCH_<id>.json file against its committed
                baseline; every cell must match exactly (CI gate)
     lint       effect and determinism lint over OCaml sources

   A flag that several subcommands take is defined once, below, as a
   Cmdliner term: the dataset (--scale/--skew/--seed), the observability
   sinks (--trace/--metrics/--wall) and the source faults
   (--fault/--mirror). *)

open Cmdliner
open Adp_relation
open Adp_datagen
open Adp_exec
open Adp_optimizer
open Adp_core
open Adp_query

(* ---------------- shared arguments ---------------- *)

(* The generated TPC-H dataset a subcommand runs over. *)
let dataset =
  let scale =
    let doc = "TPC-H scale factor (0.1 reproduces the paper's 100 MB)." in
    Arg.(value & opt float 0.01 & info [ "scale" ] ~docv:"SF" ~doc)
  in
  let skew =
    let doc = "Zipf skew factor for the generated data (0 = uniform)." in
    Arg.(value & opt float 0.0 & info [ "skew" ] ~docv:"Z" ~doc)
  in
  let seed =
    let doc = "Random seed for data generation." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let generate scale skew seed =
    let distribution =
      if skew > 0.0 then Tpch.Skewed skew else Tpch.Uniform
    in
    Tpch.generate { Tpch.scale; distribution; seed }
  in
  Term.(const generate $ scale $ skew $ seed)

let sql_arg =
  let doc = "The SQL query (select-project-join-aggregate subset)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let cards_arg =
  let doc =
    "Give the optimizer the true source cardinalities (otherwise it \
     assumes the default 20,000)."
  in
  Arg.(value & flag & info [ "cardinalities"; "cards" ] ~doc)

let parse_query_with_order sql =
  try Sql_parser.parse_with_order ~schema_of:Tpch.schema_of sql
  with Sql_parser.Parse_error m ->
    Printf.eprintf "parse error: %s\n" m;
    exit 2

let parse_query sql = fst (parse_query_with_order sql)

module Analyzer = Adp_analysis.Analyzer
module Diagnostic = Adp_analysis.Diagnostic

(* A run the analyzer refused: list every problem and exit 1. *)
let analysis_failed where ds =
  Printf.eprintf "%s: %d problem(s)\n%s\n%!" where (List.length ds)
    (Diagnostic.to_string ds);
  exit 1

let lookup catalog r =
  try Some (Catalog.schema_of catalog r) with Not_found -> None

(* The optimizer assumes a well-formed query, so a subcommand that plans
   one checks it first. *)
let check_query ~where catalog q =
  let ds = Analyzer.check_query ~lookup:(lookup catalog) q in
  if Diagnostic.has_errors ds then analysis_failed where ds

(* ---------------- generate ---------------- *)

let generate_cmd =
  let table_arg =
    let doc = "Table to print (region, nation, supplier, customer, orders, lineitem)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TABLE" ~doc)
  in
  let limit_arg =
    let doc = "Rows to print." in
    Arg.(value & opt int 20 & info [ "limit"; "n" ] ~docv:"N" ~doc)
  in
  let run table limit ds =
    match Tpch.table ds table with
    | rel -> Format.printf "%a" (Relation.pp ~limit) rel
    | exception Not_found ->
      Printf.eprintf "unknown table %s (expected one of: %s)\n" table
        (String.concat ", " Tpch.table_names);
      exit 2
  in
  let doc = "Generate and print rows of a TPC-H-style table." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const run $ table_arg $ limit_arg $ dataset)

(* ---------------- explain ---------------- *)

let explain_sql sql =
  let q = parse_query sql in
  Format.printf "%a@." Logical.pp q;
  Format.printf "sources:@.";
  List.iter
    (fun (s : Logical.source) ->
      Format.printf "  %s%s@." s.Logical.name
        (if s.Logical.filter = Predicate.tt then ""
         else " σ[" ^ Predicate.to_string s.Logical.filter ^ "]"))
    q.Logical.sources;
  if q.Logical.join_preds <> [] then begin
    Format.printf "join predicates:@.";
    List.iter
      (fun (a, b) -> Format.printf "  %s = %s@." a b)
      q.Logical.join_preds
  end;
  match Optimizer.preagg_point q with
  | Some (rel, groups) ->
    Format.printf "pre-aggregation point: %s grouped by %s@." rel
      (String.concat ", " groups)
  | None -> ()

let explain_trace path =
  match Adp_obs.Trace.read_jsonl path with
  | Ok events -> Format.printf "%a" Adp_obs.Trace.explain events
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let explain_cmd =
  let run arg =
    if Sys.file_exists arg && not (Sys.is_directory arg) then explain_trace arg
    else explain_sql arg
  in
  let doc =
    "Parse a SQL query and print its logical structure; or, given the \
     path of a JSONL trace recorded with $(b,query --trace), replay \
     every adaptive decision as a human-readable timeline."
  in
  let arg =
    let doc = "A SQL query, or the path of a recorded JSONL trace file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL|TRACE" ~doc)
  in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const run $ arg)

(* ---------------- plan ---------------- *)

let plan_cmd =
  let run sql ds cards =
    let q = parse_query sql in
    let catalog = Workload.catalog ~with_cardinalities:cards ds q in
    check_query ~where:"plan" catalog q;
    let sels = Adp_stats.Selectivity.create () in
    let r = Optimizer.optimize ~preagg:Optimizer.Auto q catalog sels in
    Format.printf "plan: %a@." Plan.pp_spec r.Optimizer.spec;
    Format.printf "estimated cost: %.0f, estimated output: %.0f rows@."
      r.Optimizer.est_cost r.Optimizer.est_card;
    Format.printf "alternatives:@.";
    List.iter
      (fun (alt : Optimizer.result) ->
        Format.printf "  %a  (cost %.0f)@." Plan.pp_spec alt.Optimizer.spec
          alt.Optimizer.est_cost)
      (Optimizer.alternatives ~k:3 q catalog sels)
  in
  let doc = "Show the optimizer's plan for a SQL query over generated data." in
  Cmd.v
    (Cmd.info "plan" ~doc)
    Term.(const run $ sql_arg $ dataset $ cards_arg)

(* ---------------- query ---------------- *)

let strategy_arg =
  let strategy_conv =
    Arg.enum
      [ "static", `Static; "corrective", `Corrective; "planpart", `Planpart;
        "competitive", `Competitive; "eddy", `Eddy ]
  in
  let doc =
    "Execution strategy: static, corrective, planpart, competitive, eddy."
  in
  Arg.(value & opt strategy_conv `Corrective
       & info [ "strategy"; "s" ] ~docv:"STRAT" ~doc)

let preagg_arg =
  let preagg_conv =
    Arg.enum
      [ "none", Optimizer.No_preagg; "auto", Optimizer.Auto;
        "windowed",
        Optimizer.Force (Plan.Windowed { initial = 64; max_window = 65536 });
        "traditional", Optimizer.Force Plan.Traditional ]
  in
  let doc = "Pre-aggregation strategy: none, auto, windowed, traditional." in
  Arg.(value & opt preagg_conv Optimizer.No_preagg
       & info [ "preagg" ] ~docv:"MODE" ~doc)

let model_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ "local" ] -> Ok Source.Local
    | [ "bandwidth"; r ] ->
      (try Ok (Source.Bandwidth (float_of_string r))
       with Failure _ -> Error (`Msg "bandwidth:<tuples-per-second>"))
    | [ "wireless" ] ->
      Ok (Source.Bursty { rate = 120_000.0; mean_burst = 600; mean_gap = 0.03 })
    | _ -> Error (`Msg "expected local, bandwidth:<rate>, or wireless")
  in
  let print fmt = function
    | Source.Local -> Format.fprintf fmt "local"
    | Source.Bandwidth r -> Format.fprintf fmt "bandwidth:%g" r
    | Source.Bursty _ -> Format.fprintf fmt "wireless"
  in
  let doc = "Source arrival model: local, bandwidth:RATE, wireless." in
  let model_conv = Arg.conv (parse, print) in
  Arg.(value & opt model_conv Source.Local
       & info [ "model" ] ~docv:"MODEL" ~doc)

let limit_arg =
  let doc = "Result rows to print." in
  Arg.(value & opt int 20 & info [ "limit"; "n" ] ~docv:"N" ~doc)

(* ---------------- fault injection ---------------- *)

let fault_arg =
  let parse s =
    let trigger kind spec =
      match String.split_on_char '@' spec with
      | [ k; n ] when k = kind ->
        (try Some (int_of_string n) with Failure _ -> None)
      | _ -> None
    in
    match String.split_on_char ':' s with
    | [ name; "doa" ] -> Ok (name, Source.Dead_on_arrival)
    | [ name; spec; d ] when trigger "stall" spec <> None ->
      (try
         Ok
           (name,
            Source.Stall
              { after_tuples = Option.get (trigger "stall" spec);
                duration_s = float_of_string d })
       with Failure _ -> Error (`Msg "stall duration must be a number"))
    | [ name; spec ] when trigger "disconnect" spec <> None ->
      Ok
        (name,
         Source.Disconnect
           { after_tuples = Option.get (trigger "disconnect" spec);
             rejoin_after_s = None })
    | [ name; spec; r ] when trigger "disconnect" spec <> None ->
      (try
         Ok
           (name,
            Source.Disconnect
              { after_tuples = Option.get (trigger "disconnect" spec);
                rejoin_after_s = Some (float_of_string r) })
       with Failure _ -> Error (`Msg "rejoin delay must be a number"))
    | _ ->
      Error
        (`Msg
           "expected SRC:stall@N:DUR, SRC:disconnect@N[:REJOIN], or SRC:doa")
  in
  let print fmt (name, f) =
    match f with
    | Source.Stall { after_tuples; duration_s } ->
      Format.fprintf fmt "%s:stall@%d:%g" name after_tuples duration_s
    | Source.Disconnect { after_tuples; rejoin_after_s = None } ->
      Format.fprintf fmt "%s:disconnect@%d" name after_tuples
    | Source.Disconnect { after_tuples; rejoin_after_s = Some r } ->
      Format.fprintf fmt "%s:disconnect@%d:%g" name after_tuples r
    | Source.Dead_on_arrival -> Format.fprintf fmt "%s:doa" name
  in
  let doc =
    "Inject a fault into source $(i,SRC): $(b,SRC:stall@N:DUR) goes silent \
     for DUR virtual seconds after N tuples; $(b,SRC:disconnect@N) drops \
     the connection after N tuples (append $(b,:REJOIN) seconds to make it \
     recoverable); $(b,SRC:doa) never answers.  Repeatable."
  in
  Arg.(value & opt_all (conv (parse, print)) []
       & info [ "fault" ] ~docv:"SPEC" ~doc)

let mirror_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ name ] -> Ok (name, 0)
    | [ name; lag ] ->
      (try Ok (name, int_of_string lag)
       with Failure _ -> Error (`Msg "mirror lag must be an integer"))
    | _ -> Error (`Msg "expected SRC or SRC:LAG")
  in
  let print fmt (name, lag) = Format.fprintf fmt "%s:%d" name lag in
  let doc =
    "Give source $(i,SRC) a failover mirror that resumes $(i,LAG) tuples \
     behind the failure point (default 0).  Repeatable; mirrors are tried \
     in order."
  in
  Arg.(value & opt_all (conv (parse, print)) []
       & info [ "mirror" ] ~docv:"SRC[:LAG]" ~doc)

(* Applies the --fault and --mirror specs to the sources they name. *)
let inject ~faults ~mirrors srcs =
  List.iter
    (fun src ->
      let name = Source.name src in
      List.iter (fun (n, f) -> if n = name then Source.inject src f) faults;
      List.iter
        (fun (n, lag) ->
          if n = name then
            Source.add_mirror src (Source.mirror ~lag_tuples:lag ()))
        mirrors)
    srcs;
  srcs

let retry_arg =
  let doc = "Source silence timeout in virtual seconds." in
  let timeout =
    Arg.(value & opt float Retry.default_policy.Retry.timeout_s
         & info [ "retry-timeout" ] ~docv:"S" ~doc)
  in
  let doc = "Reconnect attempts before declaring a source dead." in
  let retries =
    Arg.(value & opt int Retry.default_policy.Retry.max_retries
         & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let doc = "Initial retry backoff in virtual seconds (doubles per attempt)." in
  let backoff =
    Arg.(value & opt float Retry.default_policy.Retry.backoff_initial_s
         & info [ "backoff" ] ~docv:"S" ~doc)
  in
  let combine timeout_s max_retries backoff_initial_s =
    { Retry.default_policy with timeout_s; max_retries; backoff_initial_s }
  in
  Term.(const combine $ timeout $ retries $ backoff)

(* ---------------- checkpointing / crash recovery ---------------- *)

let checkpoint_dir_arg =
  let doc =
    "Write execution checkpoints (phase ledger, operator state, stream \
     positions, observed statistics) into $(i,DIR).  By default one \
     checkpoint is written at every phase boundary; add \
     $(b,--checkpoint-every) for mid-phase snapshots."
  in
  Arg.(value & opt (some string) None
       & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let checkpoint_every_arg =
  let doc =
    "Also checkpoint every $(i,N) consumed source tuples (requires \
     $(b,--checkpoint-dir))."
  in
  Arg.(value & opt (some int) None
       & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let resume_arg =
  let doc =
    "Resume an interrupted run from $(i,PATH) (a checkpoint file or a \
     directory holding them; with no value, the latest checkpoint in \
     $(b,--checkpoint-dir)).  The interrupted phase is closed at its \
     recorded positions and the residual input continues in a new, \
     re-optimized phase; stitch-up makes the answer equal an \
     uninterrupted run's."
  in
  Arg.(value & opt ~vopt:(Some "") (some string) None
       & info [ "resume" ] ~docv:"PATH" ~doc)

let crash_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ "tuples"; n ] ->
      (try Ok (Adp_recovery.Crash.After_tuples (int_of_string n))
       with Failure _ -> Error (`Msg "tuples:<count>"))
    | [ "phase"; k ] ->
      (try Ok (Adp_recovery.Crash.At_phase_boundary (int_of_string k))
       with Failure _ -> Error (`Msg "phase:<id>"))
    | [ "stitchup" ] -> Ok Adp_recovery.Crash.During_stitchup
    | _ -> Error (`Msg "expected tuples:N, phase:K, or stitchup")
  in
  let print fmt = function
    | Adp_recovery.Crash.After_tuples n -> Format.fprintf fmt "tuples:%d" n
    | Adp_recovery.Crash.At_phase_boundary k -> Format.fprintf fmt "phase:%d" k
    | Adp_recovery.Crash.During_stitchup -> Format.fprintf fmt "stitchup"
  in
  let doc =
    "Kill the engine at an execution point (after any due checkpoint is \
     written): $(b,tuples:N) after N consumed tuples, $(b,phase:K) while \
     closing phase K, $(b,stitchup) once result assembly starts.  The \
     process exits 3; a later $(b,--resume) run picks up from the last \
     checkpoint.  Repeatable."
  in
  Arg.(value & opt_all (conv (parse, print)) []
       & info [ "crash-after"; "crash" ] ~docv:"POINT" ~doc)

(* ---------------- resource governance ---------------- *)

let breaker_arg =
  let doc =
    "Give every source a circuit breaker: $(b,--breaker-threshold) \
     connection failures within $(b,--breaker-window) trip it open — \
     retries stop burning the retry budget and the re-optimizer treats \
     the source as stalled, steering joins toward the healthy sources \
     and mirrors.  After $(b,--breaker-cooldown) (with seeded jitter) a \
     single half-open probe is admitted; a successful probe, or live \
     data, closes the breaker."
  in
  let enabled = Arg.(value & flag & info [ "breaker" ] ~doc) in
  let doc = "Breaker sliding failure window, virtual seconds." in
  let window =
    Arg.(value & opt float Breaker.default_policy.Breaker.window_s
         & info [ "breaker-window" ] ~docv:"S" ~doc)
  in
  let doc = "Connection failures within the window that trip the breaker." in
  let threshold =
    Arg.(value & opt int Breaker.default_policy.Breaker.failure_threshold
         & info [ "breaker-threshold" ] ~docv:"N" ~doc)
  in
  let doc = "Cooldown before a half-open probe, virtual seconds." in
  let cooldown =
    Arg.(value & opt float Breaker.default_policy.Breaker.cooldown_s
         & info [ "breaker-cooldown" ] ~docv:"S" ~doc)
  in
  let combine enabled window_s failure_threshold cooldown_s =
    if enabled then
      Some
        { Breaker.default_policy with
          Breaker.window_s; failure_threshold; cooldown_s }
    else None
  in
  Term.(const combine $ enabled $ window $ threshold $ cooldown)

let deadline_arg =
  let doc =
    "Deadline for the whole query of a corrective run, virtual seconds.  \
     At every re-optimizer poll the running plan's cost-to-go is compared \
     against the remaining budget; once the deadline cannot be met (or \
     has passed) the run degrades deliberately — the phase closes early, \
     stitch-up assembles what arrived, and the partial answer is \
     reported as DEGRADED (deadline) with its coverage.  A static run \
     never polls, so it refuses a deadline."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc)

let mem_budget_arg =
  let doc =
    "Soft memory budget of a corrective run, in resident tuples: past \
     it, join state pages out most-complex-first and its probes pay the \
     I/O penalty.  A static run refuses it."
  in
  Arg.(value & opt (some int) None & info [ "mem-budget" ] ~docv:"N" ~doc)

let mem_ceiling_arg =
  let doc =
    "Hard memory ceiling of a corrective run, in resident tuples, \
     counting join state $(i,plus) pre-aggregation windows.  Past it the \
     run degrades to a partial answer (DEGRADED (memory)).  A static run \
     refuses it."
  in
  Arg.(value & opt (some int) None & info [ "mem-ceiling" ] ~docv:"N" ~doc)

(* ---------------- observability ---------------- *)

let trace_arg =
  let doc =
    "Record every adaptive decision (re-optimizer polls, plan switches, \
     routing flips, retries, checkpoints, stitch-up, ...) as a \
     virtual-clock-stamped event trace in $(i,FILE) as JSONL, \
     replayable with $(b,tukwila explain FILE).  Tracing never perturbs \
     the virtual clock: the reported times are identical with and \
     without it."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Dump the engine counters (tuples read, retries, failovers, lost \
     sources, checkpoints, paged-out states, breaker trips, degraded \
     queries) into $(i,FILE) in the Prometheus text exposition format \
     when the run ends.  Under $(b,serve) each counter is labelled with \
     its query."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let wall_arg =
  let doc =
    "Attach the wall-clock sidecar.  $(b,query) prints a wall/GC summary \
     line (wall and CPU milliseconds, minor and major words allocated).  \
     $(b,profile) annotates the plan tree with per-node wall self-time \
     and allocation, and follows the calibration ledger with a wall/GC \
     summary.  The sidecar only reads hardware \
     time: virtual times and results are identical with and without it."
  in
  Arg.(value & flag & info [ "wall" ] ~doc)

(* The observability flags of one subcommand; a subcommand without
   --metrics or --wall gets [None] or [false] for it. *)
type obs = {
  trace_file : string option;
  metrics_file : string option;
  with_wall : bool;
}

let obs ?(metrics = true) ?(wall = true) () =
  let make trace_file metrics_file with_wall =
    { trace_file; metrics_file; with_wall }
  in
  Term.(const make $ trace_arg
        $ (if metrics then metrics_arg else const None)
        $ (if wall then wall_arg else const false))

type sinks = {
  trace : Adp_obs.Trace.t option;
  metrics : Adp_obs.Metrics.t option;
  wall : Adp_obs.Wallclock.t option;
}

(* Runs [f] on fresh sinks for [o], and flushes them on every way out:
   an injected crash (exit 3) and a refused query (exit 1) included,
   since the trace of an interrupted run is exactly what --resume
   explains. *)
let observed o f =
  let s =
    { trace = Option.map Adp_obs.Trace.file o.trace_file;
      metrics = Option.map (fun _ -> Adp_obs.Metrics.create ()) o.metrics_file;
      wall = (if o.with_wall then Some (Adp_obs.Wallclock.create ()) else None)
    }
  in
  let flush () =
    Option.iter Adp_obs.Trace.close s.trace;
    match o.metrics_file, s.metrics with
    | Some path, Some m ->
      Adp_storage.Snapshot.write_text ~path (Adp_obs.Metrics.to_prometheus m)
    | _ -> ()
  in
  match f s with
  | v ->
    flush ();
    v
  | exception Adp_recovery.Crash.Crashed msg ->
    flush ();
    Printf.eprintf "%s\n%!" msg;
    exit 3
  | exception Diagnostic.Failed (where, ds) ->
    flush ();
    analysis_failed where ds
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    flush ();
    Printexc.raise_with_backtrace e bt

let query_cmd =
  let run sql ds cards strategy preagg model faults mirrors retry limit
      ckpt_dir ckpt_every resume crash obs deadline_s memory_budget
      memory_ceiling breaker =
    let q, order = parse_query_with_order sql in
    let catalog = Workload.catalog ~with_cardinalities:cards ds q in
    let warned = ref false in
    let sources () =
      let srcs = inject ~faults ~mirrors (Workload.sources ~model ds q ()) in
      if not !warned then begin
        warned := true;
        let known = List.map Source.name srcs in
        List.iter
          (fun (flag, n) ->
            if not (List.mem n known) then
              Printf.eprintf "warning: %s %s: no such source in this query\n%!"
                flag n)
          (List.map (fun (n, _) -> "--fault", n) faults
           @ List.map (fun (n, _) -> "--mirror", n) mirrors)
      end;
      srcs
    in
    let checkpoint =
      match ckpt_dir with
      | Some dir ->
        Some
          (Adp_recovery.Checkpoint.policy ?every_tuples:ckpt_every ~dir ())
      | None ->
        if ckpt_every <> None then
          Printf.eprintf
            "warning: --checkpoint-every needs --checkpoint-dir\n%!";
        None
    in
    let resume_from =
      match resume with
      | None -> None
      | Some "" -> (
        match ckpt_dir with
        | Some dir -> Some dir
        | None ->
          Printf.eprintf "--resume with no path needs --checkpoint-dir\n%!";
          exit 2)
      | Some path -> Some path
    in
    let deadline = Option.map (fun s -> s *. 1e6) deadline_s in
    let recovery_cfg c =
      { c with
        Corrective.checkpoint; resume_from; crash; deadline; memory_budget;
        memory_ceiling; breaker }
    in
    let strategy =
      match strategy with
      | `Static -> Strategy.Corrective (recovery_cfg Strategy.static_config)
      | `Corrective ->
        Strategy.Corrective
          (recovery_cfg
             { Corrective.default_config with poll_interval = 2e4 })
      | `Planpart -> Strategy.Plan_partitioned
      | `Competitive ->
        Strategy.Competitive { candidates = 3; explore_budget = 5e4 }
      | `Eddy -> Strategy.Eddying
    in
    (match strategy with
     | Strategy.Corrective _ -> ()
     | _ ->
       if checkpoint <> None || resume_from <> None || crash <> [] then
         Printf.eprintf
           "warning: checkpointing applies only to static/corrective runs\n%!";
       if deadline <> None || memory_budget <> None || memory_ceiling <> None
          || breaker <> None
       then
         Printf.eprintf
           "warning: resource governance (--deadline/--mem-budget/\
            --mem-ceiling/--breaker) applies only to static/corrective \
            runs\n%!");
    (match strategy with
     | Strategy.Static | Strategy.Corrective _ | Strategy.Eddying -> ()
     | Strategy.Plan_partitioned | Strategy.Competitive _ ->
       if obs.trace_file <> None || obs.metrics_file <> None then
         Printf.eprintf
           "warning: --trace/--metrics record nothing under planpart/\
            competitive runs, which take no observers\n%!");
    let o, wall =
      observed obs (fun s ->
          ( Strategy.run ~preagg ~label:"query" ~retry ?trace:s.trace
              ?metrics:s.metrics ?wall:s.wall strategy q catalog ~sources,
            s.wall ))
    in
    Format.printf "%a@.@." Report.pp_run o.Strategy.report;
    (match wall with
     | None -> ()
     | Some w ->
       let g = Adp_obs.Wallclock.gc_totals w in
       Format.printf
         "wall %.1f ms (cpu %.1f ms); GC %s minor + %s major words@.@."
         (Adp_obs.Wallclock.elapsed_s w *. 1e3)
         (Adp_obs.Wallclock.cpu_s w *. 1e3)
         (Report.human_int (int_of_float g.Adp_obs.Wallclock.g_minor_words))
         (Report.human_int (int_of_float g.Adp_obs.Wallclock.g_major_words)));
    (match o.Strategy.corrective_stats with
     | Some stats when stats.Corrective.phases > 1 ->
       List.iter
         (fun (p : Corrective.phase_info) ->
           Format.printf "phase %d (read %d, emitted %d): %s@." p.Corrective.id
             p.Corrective.read p.Corrective.emitted p.Corrective.plan_desc)
         stats.Corrective.phase_log;
       Format.printf "@."
     | Some _ | None -> ());
    (* The engine pipelines unordered answers; the front end (this CLI)
       performs any final sorting, as in the paper's architecture. *)
    let result =
      if order = [] then o.Strategy.result
      else Relation.order_by o.Strategy.result order
    in
    Format.printf "%a" (Relation.pp ~limit) result
  in
  let doc = "Execute a SQL query over generated data under an adaptive strategy." in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(const run $ sql_arg $ dataset $ cards_arg $ strategy_arg
          $ preagg_arg $ model_arg $ fault_arg $ mirror_arg $ retry_arg
          $ limit_arg $ checkpoint_dir_arg $ checkpoint_every_arg
          $ resume_arg $ crash_arg $ obs () $ deadline_arg $ mem_budget_arg
          $ mem_ceiling_arg $ breaker_arg)

(* ---------------- check ---------------- *)

module Stitch_matrix = Adp_analysis.Stitch_matrix
module Lint = Adp_lint.Lint

(* Deliberate plan mutations, for demonstrating the analyzer and for
   exercising it in CI: each introduces one class of bug the analyzer must
   catch before execution would. *)
let break_arg =
  let mutation_conv =
    Arg.enum
      [ "drop-join-key", `Drop_join_key; "swap-join-keys", `Swap_join_keys;
        "unknown-source", `Unknown_source; "preagg-on-join", `Preagg_on_join;
        "uniform-leak", `Uniform_leak ]
  in
  let doc =
    "Mutate the optimized plan before analysis (repeatable): \
     $(b,drop-join-key) drops one key column from the top join, \
     $(b,swap-join-keys) swaps the top join's key sides, \
     $(b,unknown-source) renames a scan to a nonexistent source, \
     $(b,preagg-on-join) puts a pre-aggregation above a join in the \
     stitch-up tree, $(b,uniform-leak) models a stitch-up evaluator that \
     forgets the root exclusion list."
  in
  Arg.(value & opt_all mutation_conv [] & info [ "break" ] ~docv:"MUTATION" ~doc)

let phases_arg =
  let doc =
    "Phase count for the stitch-up coverage check (the nᵐ − n matrix)."
  in
  Arg.(value & opt int 2 & info [ "phases" ] ~docv:"N" ~doc)

let workloads_arg =
  let doc = "Check every bundled workload (TPC-H Q3/3A/10/10A/5, flights)." in
  Arg.(value & flag & info [ "workloads" ] ~doc)

let check_sql_arg =
  let doc = "The SQL query to check (omit with $(b,--workloads))." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let rec apply_mutation m spec =
  match m, spec with
  | `Drop_join_key, Plan.Join ({ left_key = _ :: _ as ks; _ } as j) ->
    Plan.Join { j with left_key = List.tl ks }
  | `Swap_join_keys, Plan.Join j ->
    Plan.Join { j with left_key = j.right_key; right_key = j.left_key }
  | (`Drop_join_key | `Swap_join_keys), Plan.Preagg ({ child; _ } as p) ->
    Plan.Preagg { p with child = apply_mutation m child }
  | `Unknown_source, _ ->
    let rec rename done_ spec =
      match spec with
      | Plan.Scan s when not !done_ ->
        done_ := true;
        Plan.Scan { s with source = s.source ^ "_missing" }
      | Plan.Scan _ -> spec
      | Plan.Join j ->
        let left = rename done_ j.left in
        Plan.Join { j with left; right = rename done_ j.right }
      | Plan.Preagg p -> Plan.Preagg { p with child = rename done_ p.child }
    in
    rename (ref false) spec
  | `Preagg_on_join, (Plan.Join { left_key = k :: _; _ } as root) ->
    Plan.preagg ~group_cols:[ k ]
      ~aggs:[ Aggregate.count_all ~name:"n" ]
      root
  | _, spec -> spec

let check_cmd =
  let run sql_opt ds phases workloads breaks =
    let exit_code = ref 0 in
    let report label diags =
      let errs = Diagnostic.errors diags in
      if diags = [] then Format.printf "%s: OK@." label
      else begin
        Format.printf "%s: %d error%s, %d warning%s@." label
          (List.length errs)
          (if List.length errs = 1 then "" else "s")
          (List.length diags - List.length errs)
          (if List.length diags - List.length errs = 1 then "" else "s");
        List.iter (fun d -> Format.printf "  %a@." Diagnostic.pp d) diags
      end;
      if errs <> [] then exit_code := 1
    in
    let check_one label q ~catalog ~table =
      let lookup = lookup catalog in
      let types =
        Analyzer.types_of_relations
          (List.filter_map
             (fun r ->
               try Some (r, table r) with Not_found -> None)
             (Logical.source_names q))
      in
      let qds = Analyzer.check_query ~lookup q in
      (* A broken query has no meaningful plan to check. *)
      if Diagnostic.has_errors qds then report label qds
      else begin
        let sels = Adp_stats.Selectivity.create () in
        let plan =
          List.fold_left
            (fun spec m -> apply_mutation m spec)
            (Optimizer.optimize ~preagg:Optimizer.Auto q catalog sels)
              .Optimizer.spec
            breaks
        in
        let uniform_leak =
          if List.mem `Uniform_leak breaks then
            Stitch_matrix.check ~exclude_root_uniform:false ~phases plan
          else []
        in
        report label
          (qds
          @ Analyzer.check_plan_for_query ~types ~lookup q plan
          @ Analyzer.check_stitch_tree ~phases q plan
          @ uniform_leak)
      end
    in
    (match sql_opt with
     | Some sql ->
       let q = parse_query sql in
       check_one "query" q
         ~catalog:(Workload.catalog ~with_cardinalities:true ds q)
         ~table:(Tpch.table ds)
     | None ->
       if not workloads then begin
         Printf.eprintf "nothing to check: give a SQL query or --workloads\n";
         exit 2
       end);
    if workloads then begin
      List.iter
        (fun wq ->
          let q = Workload.query wq in
          check_one (Workload.name wq) q
            ~catalog:(Workload.catalog ~with_cardinalities:true ds q)
            ~table:(Tpch.table ds))
        Workload.all;
      let fds = Flights.generate Flights.default_config in
      let flights_table = function
        | "f" -> fds.Flights.flights
        | "t" -> fds.Flights.travelers
        | "c" -> fds.Flights.children
        | _ -> raise Not_found
      in
      check_one "flights" Workload.flights_query
        ~catalog:(Workload.flights_catalog fds)
        ~table:flights_table
    end;
    exit !exit_code
  in
  let doc =
    "Statically analyze a query and its plan without executing anything: \
     schema and join-key type checks, ADP conformance and symbolic \
     stitch-up coverage (the nᵐ − n matrix).  Exits 1 when any \
     error-severity diagnostic is found.  The determinism checks of the \
     source tree are $(b,tukwila lint)'s."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(const run $ check_sql_arg $ dataset $ phases_arg $ workloads_arg
          $ break_arg)

(* ---------------- profile ---------------- *)

module Profile = Adp_obs.Profile
module Calibrate = Adp_obs.Calibrate

let profile_cmd =
  let run arg ds cards model obs =
    let q =
      match Workload.of_name arg with
      | Some wq -> Workload.query wq
      | None -> parse_query arg
    in
    let catalog = Workload.catalog ~with_cardinalities:cards ds q in
    check_query ~where:"profile" catalog q;
    (* The default reproduces the paper's mis-costed situation: the
       optimizer plans without statistics AND starts from the costliest
       candidate ordering (the plan an unlucky mis-estimate selects), so
       the calibration ledger has something to catch.  With --cards the
       run starts from the optimizer's own choice under true
       cardinalities. *)
    let initial_plan =
      if cards then None
      else begin
        let true_catalog = Workload.catalog ~with_cardinalities:true ds q in
        let sels = Adp_stats.Selectivity.create () in
        Some (Optimizer.pessimal q true_catalog sels).Optimizer.spec
      end
    in
    let profile = Profile.create () in
    let calibrate = Calibrate.create () in
    let config =
      { Corrective.default_config with
        poll_interval = 2e4; min_leaf_seen = 200; switch_threshold = 0.8;
        calibrate = Some calibrate }
    in
    let o, wall =
      observed obs (fun s ->
          ( Strategy.run ~label:"profile" ?initial_plan ?trace:s.trace
              ~profile ?wall:s.wall (Strategy.Corrective config) q catalog
              ~sources:(Workload.sources ~model ds q),
            s.wall ))
    in
    Format.printf "%a@.@." Report.pp_run o.Strategy.report;
    let latest = Calibrate.latest_by_node calibrate in
    let blame = Option.map fst (Calibrate.worst calibrate) in
    (* Wall shadow per node, aggregated across phases: appended to the
       calibration annotation so the tree shows virtual time and its
       hardware cost side by side. *)
    let wall_by_node =
      match wall with
      | None -> []
      | Some w ->
        List.map
          (fun (i : Adp_obs.Wallclock.info) -> (i.Adp_obs.Wallclock.node, i))
          (Adp_obs.Wallclock.totals w)
    in
    let annot ~node =
      let cal =
        match List.assoc_opt node latest with
        | None -> None
        | Some ob ->
          Some
            (Printf.sprintf "est %.0f / actual %.0f (q %.2f)%s"
               ob.Calibrate.o_est ob.Calibrate.o_actual ob.Calibrate.o_q
               (if blame = Some node then "  <- blame" else ""))
      in
      let wl =
        match List.assoc_opt node wall_by_node with
        | None -> None
        | Some i ->
          Some
            (Printf.sprintf "wall %.2fms, %s minor words"
               (i.Adp_obs.Wallclock.self_s *. 1e3)
               (Report.human_int
                  (int_of_float i.Adp_obs.Wallclock.minor_words)))
      in
      match (cal, wl) with
      | None, None -> None
      | Some a, None -> Some a
      | None, Some b -> Some b
      | Some a, Some b -> Some (a ^ "; " ^ b)
    in
    Format.printf "%a@." (Profile.render ~annot) profile;
    Format.printf "%a@." Calibrate.render calibrate;
    (match wall with
     | None -> ()
     | Some w ->
       let g = Adp_obs.Wallclock.gc_totals w in
       Printf.printf
         "wall %.1f ms (cpu %.1f ms), %d sampler ticks; GC: %s minor + %s \
          major words, %d minor / %d major collections\n"
         (Adp_obs.Wallclock.elapsed_s w *. 1e3)
         (Adp_obs.Wallclock.cpu_s w *. 1e3)
         (Adp_obs.Wallclock.sample_count w)
         (Report.human_int
            (int_of_float g.Adp_obs.Wallclock.g_minor_words))
         (Report.human_int
            (int_of_float g.Adp_obs.Wallclock.g_major_words))
         g.Adp_obs.Wallclock.g_minor_collections
         g.Adp_obs.Wallclock.g_major_collections)
  in
  let doc =
    "Execute a query under the corrective strategy with the per-node \
     profiler and the calibration ledger attached, then print an \
     EXPLAIN-ANALYZE-style annotated plan tree (self/cumulative virtual \
     time, tuples in/out, hash probes/builds, memory high-water, \
     estimated vs. observed cardinality, the blame node of each switch \
     decision) followed by the full calibration ledger.  Profiling never \
     perturbs the run: virtual clocks and results are identical with and \
     without it.  By default the run reproduces the paper's mis-costed \
     case (no statistics, costliest initial ordering); pass \
     $(b,--cards) for a well-informed run."
  in
  let arg =
    let doc =
      "A bundled workload id (Q3, Q3A, Q10, Q10A, Q5; case-insensitive) \
       or a SQL query."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(const run $ arg $ dataset $ cards_arg $ model_arg
          $ obs ~metrics:false ())

(* ---------------- serve ---------------- *)

module Server = Adp_server.Server
module Server_script = Adp_server.Script
module Poll_controller = Adp_server.Poll_controller

let serve_cmd =
  let script_arg =
    let doc =
      "The workload script: timestamped $(b,submit)/$(b,kill)/$(b,cancel)/\
       $(b,drain) directives over server virtual time (see the README for \
       the grammar)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc)
  in
  let workers_arg =
    let doc = "Worker pool size." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_cap_arg =
    let doc = "Admission bound: submissions beyond this many waiting queries \
               are rejected (load shedding)." in
    Arg.(value & opt int 16 & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let poll_min_arg =
    let doc = "Smallest dispatcher poll interval, virtual seconds." in
    Arg.(value & opt float 0.01 & info [ "poll-min" ] ~docv:"S" ~doc)
  in
  let poll_max_arg =
    let doc = "Largest dispatcher poll interval, virtual seconds." in
    Arg.(value & opt float 1.0 & info [ "poll-max" ] ~docv:"S" ~doc)
  in
  let poll_backoff_arg =
    let doc = "Interval multiplier after an empty poll (>= 1)." in
    Arg.(value & opt float 1.5 & info [ "poll-backoff" ] ~docv:"F" ~doc)
  in
  let poll_speedup_arg =
    let doc = "Interval multiplier after a busy poll (in (0, 1]), damped \
               by the busy fraction of the sliding window." in
    Arg.(value & opt float 0.7 & info [ "poll-speedup" ] ~docv:"F" ~doc)
  in
  let poll_window_arg =
    let doc = "Sliding window of recent polls damping the speedup." in
    Arg.(value & opt int 8 & info [ "poll-window" ] ~docv:"N" ~doc)
  in
  let max_retries_arg =
    let doc = "Worker-death reclaims tolerated per query before failing it." in
    Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let retry_backoff_arg =
    let doc = "Requeue delay after a reclaim, virtual seconds (doubles per \
               subsequent reclaim of the same query)." in
    Arg.(value & opt float 0.1 & info [ "retry-backoff" ] ~docv:"S" ~doc)
  in
  let serve_ckpt_dir_arg =
    let doc = "Checkpoint root; each query checkpoints in its own subdirectory \
               (this is what worker recovery resumes from)." in
    Arg.(required & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)
  in
  let serve_ckpt_every_arg =
    let doc = "Also checkpoint worker runs every $(i,N) consumed source \
               tuples (0 = phase boundaries only)." in
    Arg.(value & opt int 500 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let class_arg =
    let parse s =
      match String.index_opt s '=' with
      | Some i -> (
        let name = String.sub s 0 i in
        let quota = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt quota with
        | Some q when name <> "" -> Ok (name, q)
        | _ -> Error (`Msg "expected NAME=QUOTA with an integer quota"))
      | None -> Error (`Msg "expected NAME=QUOTA")
    in
    let print fmt (n, q) = Format.fprintf fmt "%s=%d" n q in
    let doc =
      "Declare admission priority class $(i,NAME) with at most \
       $(i,QUOTA) waiting queries (beyond it, submissions under the \
       class are rejected with $(b,class-quota:NAME) even when the \
       global queue has room).  Repeatable; order is priority — earlier \
       classes dispatch first, unclassified work last.  Submitting \
       under an undeclared class is rejected ($(b,unknown-class:NAME))."
    in
    Arg.(value & opt_all (conv (parse, print)) []
         & info [ "class" ] ~docv:"NAME=QUOTA" ~doc)
  in
  let serve_mem_arg =
    let doc =
      "Global memory budget in resident tuples, partitioned evenly \
       across the pool: every worker run pages its join state under \
       $(i,N)/workers."
    in
    Arg.(value & opt (some int) None
         & info [ "memory-budget" ] ~docv:"N" ~doc)
  in
  let results_arg =
    let doc =
      "Write each completed query's full result rows to \
       $(i,DIR)/<qid>.rows — the same row syntax $(b,tukwila query) \
       prints, for multiset comparison against single-query runs."
    in
    Arg.(value & opt (some string) None & info [ "results" ] ~docv:"DIR" ~doc)
  in
  let run script_path ds cards workers queue_cap poll_min poll_max
      poll_backoff poll_speedup poll_window max_retries retry_backoff ckpt_dir
      ckpt_every obs results_dir classes memory_budget breaker
      faults =
    let script =
      match Server_script.parse_file script_path with
      | Ok s -> s
      | Error ds ->
        Printf.eprintf "%s: %d problem(s)\n%s\n" script_path (List.length ds)
          (Diagnostic.to_string ds);
        exit 2
    in
    let base = Server.default_config ~checkpoint_dir:ckpt_dir in
    let config =
      { base with
        Server.workers; queue_capacity = queue_cap;
        poll =
          { Poll_controller.min_interval = poll_min *. 1e6;
            max_interval = poll_max *. 1e6; backoff = poll_backoff;
            speedup = poll_speedup; window = poll_window };
        max_retries; retry_backoff = retry_backoff *. 1e6;
        checkpoint_every = ckpt_every; class_quotas = classes; memory_budget;
        corrective = { base.Server.corrective with Corrective.breaker } }
    in
    let resolver spec =
      let r = Server.tpch_resolver ~with_cardinalities:cards ds spec in
      { r with
        Server.r_sources =
          (fun () -> inject ~faults ~mirrors:[] (r.Server.r_sources ())) }
    in
    let report =
      observed obs (fun s ->
          Server.run
            { config with
              Server.trace =
                Option.value s.trace ~default:Adp_obs.Trace.null;
              metrics = s.metrics }
            resolver script)
    in
    Format.printf "%a" Server.pp_view (Server.view report);
    Option.iter
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (q : Server.query_report) ->
            match q.Server.qr_outcome with
            | Server.Done { result; _ } ->
              Adp_storage.Snapshot.write_text
                ~path:(Filename.concat dir (q.Server.qr_id ^ ".rows"))
                (Format.asprintf "%a"
                   (Relation.pp ~limit:(Relation.cardinality result))
                   result)
            | _ -> ())
          report.Server.r_queries)
      results_dir;
    if report.Server.r_failed > 0 then exit 1
  in
  let doc =
    "Run a script-driven multi-query workload through the supervised \
     worker-pool server: a durable queue with admission control, an \
     adaptive-interval dispatcher, deterministic worker kills recovered \
     from checkpoints (the query resumes as a forced phase switch and its \
     result multiset equals an uninterrupted run's), and a shared \
     selectivity store letting later queries plan with earlier queries' \
     observed statistics.  The whole serve runs on a virtual clock: \
     tracing and metrics never change any reported time or result.  \
     Exits 1 if any query ends in the failed outcome."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(const run $ script_arg $ dataset $ cards_arg $ workers_arg
          $ queue_cap_arg $ poll_min_arg $ poll_max_arg $ poll_backoff_arg
          $ poll_speedup_arg $ poll_window_arg $ max_retries_arg
          $ retry_backoff_arg $ serve_ckpt_dir_arg $ serve_ckpt_every_arg
          $ obs ~wall:false () $ results_arg $ class_arg
          $ serve_mem_arg $ breaker_arg $ fault_arg)

(* ---------------- bench-diff ---------------- *)

let bench_diff_cmd =
  (* Loading errors already name their file. *)
  let read path =
    match Adp_obs.Bjson.load path with
    | Ok d -> d
    | Error m ->
      prerr_endline m;
      exit 2
  in
  let run base_path new_path =
    let baseline = read base_path and current = read new_path in
    match Adp_obs.Benchdiff.diff ~baseline ~current with
    | Error m ->
      prerr_endline m;
      exit 2
    | Ok (o : Adp_obs.Benchdiff.outcome) ->
      List.iter print_endline o.o_breaches;
      if o.o_breaches <> [] then begin
        Printf.printf "FAIL %s: %d breach(es) over %d gated cells\n" o.o_bench
          (List.length o.o_breaches) o.o_gated;
        exit 1
      end;
      Printf.printf "OK %s: %d gated cells match the baseline\n" o.o_bench
        o.o_gated
  in
  let doc =
    "Compare a freshly produced $(b,BENCH_<id>.json) against its \
     committed baseline.  Every cell is deterministic under the virtual \
     clock, so every $(b,time), $(b,count) and $(b,bool) cell must match \
     the baseline exactly (two values at or below 1 ns compare equal).  \
     Exits 1 on any breach, 2 on malformed or incomparable inputs \
     (schema, unknown cell kind, repeated cell id, bench id, scale or \
     cell-shape mismatch)."
  in
  let base_arg =
    let doc = "The committed baseline BENCH_<id>.json." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc)
  in
  let new_arg =
    let doc = "The freshly produced BENCH_<id>.json to gate." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc)
  in
  Cmd.v (Cmd.info "bench-diff" ~doc) Term.(const run $ base_arg $ new_arg)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let run paths strict json_out baseline =
    let paths =
      match paths with
      | [] -> List.filter Sys.file_exists Lint.default_paths
      | ps -> ps
    in
    if paths = [] then begin
      Printf.eprintf "lint: no input paths (run from the repo root, or \
                      pass paths explicitly)\n";
      exit 2
    end;
    let r = Lint.run paths in
    let shown =
      match baseline with
      | None -> r.Lint.r_diags
      | Some file -> (
        match Adp_obs.Json.parse (In_channel.with_open_bin file
                                    In_channel.input_all) with
        | Ok base -> Lint.diags_not_in_baseline r base
        | Error msg ->
          Printf.eprintf "lint: unreadable baseline %s: %s\n" file msg;
          exit 2)
    in
    List.iter (fun d -> Format.printf "%a@." Diagnostic.pp d) shown;
    (match json_out with
     | None -> ()
     | Some file ->
       Out_channel.with_open_bin file (fun oc ->
           Out_channel.output_string oc
             (Adp_obs.Json.to_string (Lint.report_json r));
           Out_channel.output_char oc '\n'));
    let errs = List.length (Diagnostic.errors shown) in
    let warns = List.length shown - errs in
    Format.printf "lint: %d file%s, %d error%s, %d warning%s%s@."
      r.Lint.r_files
      (if r.Lint.r_files = 1 then "" else "s")
      errs
      (if errs = 1 then "" else "s")
      warns
      (if warns = 1 then "" else "s")
      (match baseline with None -> "" | Some _ -> " (vs baseline)");
    if errs > 0 || (strict && warns > 0) then exit 1 else exit 0
  in
  let doc =
    "Statically check the effect & determinism contracts over OCaml \
     sources: wall-clock reads and unseeded randomness (errors anywhere, \
     and traced to engine entry points with a witness chain), ambient \
     environment reads reachable from the engine, hash-order-sensitive \
     $(b,Hashtbl.fold)/$(b,iter) results, and trace emission outside a \
     traced guard.  Findings are waived per-site with a \
     $(b,(* determinism-ok: reason *)) comment; the reason is mandatory \
     and unused waivers are flagged.  Exits 1 on errors (with \
     $(b,--strict), also on warnings)."
  in
  let paths_arg =
    let doc =
      "Files or directories to lint (default: lib bin bench test)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let strict_arg =
    let doc = "Treat warnings as fatal." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let json_arg =
    let doc = "Write the full report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let baseline_arg =
    let doc =
      "Only report diagnostics absent from this previously written \
       $(b,--json) report."
    in
    Arg.(value & opt (some file) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(const run $ paths_arg $ strict_arg $ json_arg $ baseline_arg)

let () =
  let doc =
    "Tukwila-style adaptive query processing over generated data-integration \
     workloads (reproduction of Ives, Halevy & Weld, SIGMOD 2004)"
  in
  let info = Cmd.info "tukwila" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; explain_cmd; plan_cmd; query_cmd; check_cmd;
            profile_cmd; serve_cmd;
            bench_diff_cmd; lint_cmd ]))
