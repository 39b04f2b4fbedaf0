open Adp_relation
open Adp_exec
open Adp_optimizer
module Corrective = Adp_core.Corrective
module Diagnostic = Adp_analysis.Diagnostic
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Json = Adp_obs.Json
module Selectivity = Adp_stats.Selectivity
module Checkpoint = Adp_recovery.Checkpoint
module Crash = Adp_recovery.Crash
module Workload = Adp_query.Workload
module Sql_parser = Adp_query.Sql_parser
module Tpch = Adp_datagen.Tpch

type config = {
  workers : int;
  queue_capacity : int;
  poll : Poll_controller.config;
  max_retries : int;
  retry_backoff : float;
  checkpoint_dir : string;
  checkpoint_every : int;
  class_quotas : (string * int) list;
  memory_budget : int option;
  corrective : Corrective.config;
  trace : Trace.t;
  metrics : Metrics.t option;
}

(* Worker heartbeat period, and the silence after which the supervisor
   declares a worker dead; virtual µs. *)
let heartbeat_interval = 5e4
let heartbeat_timeout = 2e5

let default_config ~checkpoint_dir =
  { workers = 2; queue_capacity = 16; poll = Poll_controller.default;
    max_retries = 3; retry_backoff = 1e5; checkpoint_dir;
    checkpoint_every = 500;
    class_quotas = []; memory_budget = None;
    corrective =
      { Corrective.default_config with poll_interval = 2e4;
        min_leaf_seen = 200; switch_threshold = 0.8 };
    trace = Trace.null; metrics = None }

let validate cfg =
  let bad fmt = Diagnostic.errorf ~path:"server" fmt in
  Poll_controller.validate cfg.poll
  @ List.concat
      [ (if cfg.workers >= 1 then []
         else [ bad ~code:"server-bad-workers" "workers must be >= 1 (got %d)"
                  cfg.workers ]);
        (if cfg.queue_capacity >= 1 then []
         else
           [ bad ~code:"server-bad-capacity"
               "queue_capacity must be >= 1 (got %d)" cfg.queue_capacity ]);
        (if cfg.max_retries >= 0 then []
         else [ bad ~code:"server-bad-retries"
                  "max_retries must be >= 0 (got %d)" cfg.max_retries ]);
        (if cfg.retry_backoff >= 0.0 then []
         else [ bad ~code:"server-bad-backoff"
                  "retry_backoff must be >= 0 (got %g)" cfg.retry_backoff ]);
        (if cfg.checkpoint_every >= 0 then []
         else
           [ bad ~code:"server-bad-checkpoint-every"
               "checkpoint_every must be >= 0 (got %d)" cfg.checkpoint_every ]);
        (if cfg.checkpoint_dir <> "" then []
         else [ bad ~code:"server-bad-checkpoint-dir"
                  "checkpoint_dir must not be empty" ]);
        List.concat_map
          (fun (name, quota) ->
            (if name <> "" then []
             else [ bad ~code:"server-bad-class"
                      "priority class names must not be empty" ])
            @
            if quota >= 1 then []
            else
              [ bad ~code:"server-bad-class"
                  "class %S quota must be >= 1 (got %d)" name quota ])
          cfg.class_quotas;
        (let names = List.map fst cfg.class_quotas in
         if List.length (List.sort_uniq String.compare names)
            = List.length names
         then []
         else [ bad ~code:"server-bad-class"
                  "priority class names must be distinct" ]);
        (match cfg.memory_budget with
         | Some b when b < cfg.workers ->
           [ bad ~code:"server-bad-memory"
               "global memory budget %d cannot be partitioned across %d \
                workers (need at least one tuple per worker)"
               b cfg.workers ]
         | Some _ | None -> []) ]

type resolved = {
  r_query : Logical.query;
  r_catalog : Catalog.t;
  r_sources : unit -> Source.t list;
}

type resolver = string -> resolved

type outcome =
  | Done of { result : Relation.t; stats : Corrective.stats }
  | Failed of string
  | Cancelled
  | Rejected of string

type query_report = {
  qr_id : string;
  qr_spec : string;
  qr_class : string option;
  qr_deadline_s : float option;
  qr_outcome : outcome;
  qr_submitted_s : float;
  qr_finished_s : float;
  qr_attempts : int;
  qr_warm_signatures : int;
  qr_warm_plan_changed : bool;
}

type report = {
  r_queries : query_report list;
  r_done : int;
  r_failed : int;
  r_cancelled : int;
  r_rejected : int;
  r_shed : int;
  r_workers_spawned : int;
  r_workers_died : int;
  r_reclaims : int;
  r_polls : int;
  r_busy_polls : int;
  r_min_interval_s : float;
  r_max_interval_s : float;
  r_finished_s : float;
  r_shared_signatures : int;
}

(* ------------------------------------------------------------------ *)
(* Internal state                                                     *)
(* ------------------------------------------------------------------ *)

(* Everything an in-flight attempt needs to be re-executed bit-identically
   (a kill directive landing mid-attempt replays it with the crash armed)
   and to map the inner run's virtual clock onto the server clock. *)
type attempt = {
  a_worker : int;
  a_t0 : float;  (* server time the attempt started *)
  a_base : float;  (* inner clock at start (resume point), µs *)
  a_resume : string option;
  a_seed : Selectivity.dump;  (* shared-store snapshot the attempt saw *)
  a_snapshot : string list;  (* checkpoint files present at start *)
}

(* What the eagerly-executed attempt produced, held until the server
   clock reaches the completion (or supervisor-detection) event. *)
type pending =
  | P_done of Relation.t * Corrective.stats * Trace.stamped list
  | P_error of string * Trace.stamped list
  | P_crashed of { last_hb : float; msg : string; events : Trace.stamped list }

type jstate = Queued | Running | Terminal

type job = {
  j_id : string;
  j_spec : string;
  j_class : string option;
  j_deadline : float option;  (* absolute server µs *)
  j_resolved : resolved option;
  j_submitted : float;
  mutable j_state : jstate;
  mutable j_attempts : int;  (* executions started *)
  mutable j_failures : int;  (* attempts reclaimed after a worker death *)
  mutable j_not_before : float;
  mutable j_armed : Crash.point list;  (* kills waiting for an attempt *)
  mutable j_gen : int;  (* invalidates stale completion/death events *)
  mutable j_params : attempt option;
  mutable j_pending : pending option;
  mutable j_outcome : outcome option;
  mutable j_finished : float;
  mutable j_warm_sigs : int;
  mutable j_warm_changed : bool;
}

type ev =
  | E_submit of string * string * string option * float option
  | E_kill of string * Crash.point
  | E_cancel of string
  | E_drain
  | E_poll
  | E_complete of string * int
  | E_death of string * int

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

let ckpt_files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    (* determinism-ok: listing is sorted below before any choice is made *)
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".adpckpt")
    |> List.sort String.compare
  else []

let latest_clock dir ~base =
  match Checkpoint.latest ~dir with
  | None -> None
  | Some path -> (
    Option.map
      (fun (c : Clock.state) -> Float.max base c.Clock.s_now)
      (Checkpoint.load_clock path))

let rec subsets = function
  | [] -> [ [] ]
  | x :: tl ->
    let s = subsets tl in
    s @ List.map (fun y -> x :: y) s

let plan_desc spec = Format.asprintf "%a" Plan.pp_spec spec

let run config resolver script =
  Diagnostic.raise_if_errors ~where:"server" (validate config);
  let trace_on = Trace.enabled config.trace in
  let emit ~at ev = if trace_on then Trace.emit config.trace ~at ev in
  let metrics =
    match config.metrics with Some m -> m | None -> Metrics.create ()
  in
  let depth_g =
    Metrics.gauge metrics ~help:"waiting queries" "adp_server_queue_depth"
  in
  let interval_g =
    Metrics.gauge metrics ~help:"dispatcher poll interval (virtual s)"
      "adp_server_poll_interval_seconds"
  in
  let alive_g =
    Metrics.gauge metrics ~help:"live pool workers" "adp_server_workers_alive"
  in
  let outcome_c name =
    Metrics.counter metrics
      ~labels:[ ("outcome", name) ]
      ~help:"queries by final outcome" "adp_server_queries_total"
  in
  let done_c = outcome_c "done"
  and failed_c = outcome_c "failed"
  and cancelled_c = outcome_c "cancelled"
  and rejected_c = outcome_c "rejected" in
  let polls_c =
    Metrics.counter metrics ~help:"dispatcher polls" "adp_server_polls_total"
  in
  let reclaims_c =
    Metrics.counter metrics ~help:"queries reclaimed from dead workers"
      "adp_server_reclaims_total"
  in
  let shed_c =
    Metrics.counter metrics
      ~help:"queued queries shed because their deadline passed"
      "adp_server_shed_total"
  in
  (* Event heap ordered by time; the sequence number keeps equal-time
     events in insertion order. *)
  let heap : (float * int * ev) Heap.t =
    Heap.create (fun (t1, s1, _) (t2, s2, _) ->
        match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
  in
  let seq = ref 0 in
  let schedule at ev =
    incr seq;
    Heap.push heap (at, !seq, ev)
  in
  (* State. *)
  let jobs : (string, job) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let waiting = ref [] in
  let draining = ref false in
  let shared = Selectivity.create () in
  let workers : (int, string option) Hashtbl.t = Hashtbl.create 8 in
  let next_worker = ref 0 in
  let spawned = ref 0 and died = ref 0 and reclaims = ref 0 in
  let sheds = ref 0 in
  let polls = ref 0 and busy_polls = ref 0 in
  let min_seen = ref infinity and max_seen = ref 0.0 in
  let now = ref 0.0 in
  let spawn_worker () =
    incr next_worker;
    incr spawned;
    Hashtbl.replace workers !next_worker None;
    Metrics.set alive_g (float_of_int (Hashtbl.length workers));
    emit ~at:!now (Trace.Worker_spawned { worker = !next_worker });
    !next_worker
  in
  let pc = Poll_controller.create config.poll in
  let job_dir job = Filename.concat config.checkpoint_dir job.j_id in
  let set_depth () =
    Metrics.set depth_g (float_of_int (List.length !waiting))
  in
  let finish job outcome =
    job.j_state <- Terminal;
    job.j_outcome <- Some outcome;
    job.j_finished <- !now;
    job.j_params <- None;
    job.j_pending <- None;
    Metrics.incr
      (match outcome with
       | Done _ -> done_c
       | Failed _ -> failed_c
       | Cancelled -> cancelled_c
       | Rejected _ -> rejected_c)
  in
  (* Each re-stamped block is preceded by a [Query_attempt] marker
     carrying its length, which is what lets [tukwila explain] group a
     serve trace into per-query lanes. *)
  let emit_shifted job (params : attempt) events =
    if trace_on && events <> [] then begin
      emit ~at:params.a_t0
        (Trace.Query_attempt
           { query = job.j_id; attempt = job.j_attempts;
             worker = params.a_worker; events = List.length events });
      List.iter
        (fun (ts, ev) ->
          emit ~at:(params.a_t0 +. Float.max 0.0 (ts -. params.a_base)) ev)
        events
    end
  in
  (* Warm-start evidence: how many of the shared store's selectivity
     signatures match a connected subexpression of this query, and
     whether that evidence flips the optimizer's initial plan.  Both go
     through the estimator only, which never touches any clock. *)
  let warm_start job (r : resolved) seed =
    let names = Logical.source_names r.r_query in
    let sigs =
      subsets names
      |> List.filter (fun s -> s <> [] && Logical.connected r.r_query s)
      |> List.map (Logical.signature_of_set r.r_query)
      |> List.sort_uniq String.compare
    in
    let known sg =
      List.mem_assoc sg seed.Selectivity.d_sels
      || List.mem_assoc sg seed.Selectivity.d_outs
    in
    job.j_warm_sigs <- List.length (List.filter known sigs);
    if job.j_warm_sigs > 0 then begin
      let cc = config.corrective in
      let plan_under sels =
        plan_desc
          (Optimizer.optimize ~preagg:cc.Corrective.preagg
             ~costs:cc.Corrective.costs r.r_query r.r_catalog sels)
            .Optimizer.spec
      in
      match
        plan_under (Selectivity.create ()) <> plan_under (Selectivity.load seed)
      with
      | changed -> job.j_warm_changed <- changed
      | exception _ -> job.j_warm_changed <- false
    end
  in
  (* Execute one attempt eagerly through the ordinary corrective entry
     point; the outcome is parked on the job and surfaces when the
     server clock reaches the completion/detection event. *)
  let execute job (params : attempt) ~crash =
    let r = Option.get job.j_resolved in
    let dir = job_dir job in
    let qm = Metrics.with_labels metrics [ ("query", job.j_id) ] in
    (* Drop cells of a discarded or reclaimed prior attempt: the cells
       left behind equal what a single fresh process would have
       produced, and the store stays bounded per query. *)
    Metrics.prune qm;
    let inner = if trace_on then Trace.memory () else Trace.null in
    let policy =
      Checkpoint.policy
        ?every_tuples:
          (if config.checkpoint_every > 0 then Some config.checkpoint_every
           else None)
        ~dir ()
    in
    (* Map the job's absolute server-clock deadline onto the attempt's
       inner clock (which starts at the resume point [a_base]): the run
       must stop when server time reaches the deadline, i.e. when its own
       clock reaches [a_base + (deadline - a_t0)]. *)
    let deadline =
      match job.j_deadline with
      | Some dl -> Some (params.a_base +. Float.max 0.0 (dl -. params.a_t0))
      | None -> config.corrective.Corrective.deadline
    in
    (* The global memory budget is partitioned evenly across the pool:
       every worker pages under its slice regardless of what its
       neighbours run, so one heavy query cannot starve the others. *)
    let memory_budget =
      match config.memory_budget with
      | Some b -> Some (max 1 (b / config.workers))
      | None -> config.corrective.Corrective.memory_budget
    in
    let cc =
      { config.corrective with
        Corrective.checkpoint = Some policy; resume_from = params.a_resume;
        crash; stats_seed = Some params.a_seed; trace = inner;
        metrics = Some qm; deadline; memory_budget }
    in
    (* A shared profile separates queries by scope: their spans, virtual
       and wall alike, key as "q:<id>:phase ..." instead of colliding on
       bare phase names.  A recorder without a profile stamps into its
       own registry. *)
    let profile =
      match cc.Corrective.profile, cc.Corrective.wall with
      | None, Some w -> Some (Adp_obs.Wallclock.profile w)
      | p, _ -> p
    in
    let set_scope s =
      Option.iter (fun p -> Adp_obs.Profile.set_scope p s) profile
    in
    set_scope ("q:" ^ job.j_id);
    Fun.protect ~finally:(fun () -> set_scope "") @@ fun () ->
    match Corrective.run ~config:cc r.r_query r.r_catalog (r.r_sources ()) with
    | result, stats ->
      (* determinism-ok: draining the job's own capture trace ([] when
         tracing is off) into the reply, not back into execution *)
      job.j_pending <- Some (P_done (result, stats, Trace.events inner));
      schedule
        (params.a_t0
        +. Float.max 0.0 (stats.Corrective.total_time -. params.a_base))
        (E_complete (job.j_id, job.j_gen))
    | exception Crash.Crashed msg ->
      (* The worker died at the virtual moment of its last checkpoint (the
         best deterministic anchor the survivors can ever learn); its last
         heartbeat is the latest beat before that, and the supervisor
         notices one heartbeat-timeout later. *)
      let death_off =
        match latest_clock dir ~base:params.a_base with
        | Some s_now -> s_now -. params.a_base
        | None -> 0.0
      in
      let hb = heartbeat_interval in
      let beats = Float.of_int (int_of_float (death_off /. hb)) in
      let last_hb = params.a_t0 +. (beats *. hb) in
      job.j_pending <-
        (* determinism-ok: draining the job's own capture trace into the
           crash record, not back into execution *)
        Some (P_crashed { last_hb; msg; events = Trace.events inner });
      schedule (last_hb +. heartbeat_timeout)
        (E_death (job.j_id, job.j_gen))
    | exception Diagnostic.Failed (where, diags) ->
      job.j_pending <-
        Some
          (P_error
             ( Printf.sprintf "%s: %s" where
                 (String.trim (Diagnostic.to_string diags)),
               (* determinism-ok: draining the job's own capture trace into
                  the error record, not back into execution *)
               Trace.events inner ));
      schedule params.a_t0 (E_complete (job.j_id, job.j_gen))
  in
  let start_attempt job worker =
    let dir = job_dir job in
    if job.j_attempts = 0 then
      (* a previous server run's checkpoints must not leak into this one *)
      List.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (ckpt_files dir);
    let resume =
      if job.j_failures > 0 && Checkpoint.latest ~dir <> None then Some dir
      else None
    in
    let base =
      match resume with
      | None -> 0.0
      | Some _ -> (
        match latest_clock dir ~base:0.0 with Some s -> s | None -> 0.0)
    in
    let seed = Selectivity.dump shared in
    if job.j_attempts = 0 then
      Option.iter (fun r -> warm_start job r seed) job.j_resolved;
    job.j_attempts <- job.j_attempts + 1;
    job.j_gen <- job.j_gen + 1;
    job.j_state <- Running;
    Hashtbl.replace workers worker (Some job.j_id);
    let params =
      { a_worker = worker; a_t0 = !now; a_base = base; a_resume = resume;
        a_seed = seed; a_snapshot = ckpt_files dir }
    in
    job.j_params <- Some params;
    let crash =
      match job.j_armed with
      | [] -> []
      | p :: tl ->
        job.j_armed <- tl;
        [ p ]
    in
    execute job params ~crash
  in
  let reject job reason =
    emit ~at:!now
      (Trace.Admission
         { query = job.j_id; accepted = false;
           queue_depth = List.length !waiting; reason });
    finish job (Rejected reason)
  in
  (* Priority rank of a class: its position in [class_quotas] (earlier =
     higher priority); unclassified work dispatches after every class. *)
  let class_rank klass =
    match klass with
    | None -> max_int
    | Some c ->
      let rec idx i = function
        | [] -> max_int
        | (n, _) :: tl -> if n = c then i else idx (i + 1) tl
      in
      idx 0 config.class_quotas
  in
  let waiting_in_class c =
    List.length
      (List.filter
         (fun qid ->
           match Hashtbl.find_opt jobs qid with
           | Some j -> j.j_class = Some c
           | None -> false)
         !waiting)
  in
  let handle = function
    | E_submit (qid, spec, klass, deadline_s) ->
      let resolved, resolve_error =
        match resolver spec with
        | r -> (Some r, None)
        | exception Diagnostic.Failed (where, diags) ->
          ( None,
            Some
              (Printf.sprintf "%s: %s" where
                 (String.trim (Diagnostic.to_string diags))) )
      in
      let job =
        { j_id = qid; j_spec = spec; j_class = klass;
          j_deadline = Option.map (fun d -> !now +. (d *. 1e6)) deadline_s;
          j_resolved = resolved;
          j_submitted = !now; j_state = Queued; j_attempts = 0;
          j_failures = 0; j_not_before = !now; j_armed = []; j_gen = 0;
          j_params = None; j_pending = None; j_outcome = None;
          j_finished = !now; j_warm_sigs = 0;
          j_warm_changed = false }
      in
      Hashtbl.replace jobs qid job;
      order := qid :: !order;
      let quota_full =
        match klass with
        | Some c -> (
          match List.assoc_opt c config.class_quotas with
          | Some quota -> waiting_in_class c >= quota
          | None -> false)
        | None -> false
      in
      if !draining then reject job "draining"
      else if
        (match klass with
         | Some c -> not (List.mem_assoc c config.class_quotas)
         | None -> false)
      then
        reject job
          (Printf.sprintf "unknown-class:%s" (Option.get klass))
      else if List.length !waiting >= config.queue_capacity then
        reject job "queue-full"
      else if quota_full then
        reject job
          (Printf.sprintf "class-quota:%s" (Option.get klass))
      else begin
        match resolve_error with
        | Some msg ->
          emit ~at:!now
            (Trace.Admission
               { query = qid; accepted = true;
                 queue_depth = List.length !waiting; reason = "" });
          finish job (Failed msg)
        | None ->
          waiting := !waiting @ [ qid ];
          set_depth ();
          emit ~at:!now
            (Trace.Admission
               { query = qid; accepted = true;
                 queue_depth = List.length !waiting; reason = "" })
      end
    | E_kill (qid, point) -> (
      match Hashtbl.find_opt jobs qid with
      | None -> ()
      | Some job -> (
        match job.j_state with
        | Queued -> job.j_armed <- job.j_armed @ [ point ]
        | Terminal -> ()
        | Running -> (
          match job.j_pending with
          | Some (P_done _) -> (
            (* The in-flight attempt would have completed; replay it with
               the crash armed.  Same seed, same resume point, same
               checkpoint dir state: deterministic. *)
            match job.j_params with
            | None -> job.j_armed <- job.j_armed @ [ point ]
            | Some params ->
              job.j_gen <- job.j_gen + 1;
              let dir = job_dir job in
              List.iter
                (fun f ->
                  if not (List.mem f params.a_snapshot) then
                    Sys.remove (Filename.concat dir f))
                (ckpt_files dir);
              execute job params ~crash:[ point ])
          | Some (P_error _) | Some (P_crashed _) | None ->
            (* already failing or already dying; arm for a later attempt *)
            job.j_armed <- job.j_armed @ [ point ])))
    | E_cancel qid -> (
      match Hashtbl.find_opt jobs qid with
      | Some job when job.j_state = Queued ->
        waiting := List.filter (fun id -> id <> qid) !waiting;
        set_depth ();
        finish job Cancelled
      | Some _ | None -> ())
    | E_drain -> draining := true
    | E_complete (qid, gen) -> (
      match Hashtbl.find_opt jobs qid with
      | Some job when job.j_gen = gen -> (
        let params = Option.get job.j_params in
        Hashtbl.replace workers params.a_worker None;
        match job.j_pending with
        | Some (P_done (result, stats, events)) ->
          emit_shifted job params events;
          (* publish what this run learned only now, at its completion
             event: a later-starting attempt must not see statistics from
             a run that (on the server clock) had not finished yet *)
          Selectivity.absorb shared stats.Corrective.learned;
          finish job (Done { result; stats })
        | Some (P_error (msg, events)) ->
          emit_shifted job params events;
          finish job (Failed msg)
        | Some (P_crashed _) | None -> ())
      | Some _ | None -> ())
    | E_death (qid, gen) -> (
      match Hashtbl.find_opt jobs qid with
      | Some job when job.j_gen = gen -> (
        match (job.j_pending, job.j_params) with
        | Some (P_crashed { last_hb; msg; events }), Some params ->
          emit_shifted job params events;
          let w = params.a_worker in
          Hashtbl.remove workers w;
          incr died;
          Metrics.set alive_g (float_of_int (Hashtbl.length workers));
          emit ~at:!now
            (Trace.Worker_died
               { worker = w; query = qid; last_heartbeat_s = last_hb /. 1e6 });
          let dir = job_dir job in
          let resume_from =
            match Checkpoint.latest ~dir with Some _ -> dir | None -> ""
          in
          emit ~at:!now
            (Trace.Worker_reclaimed
               { worker = w; query = qid; attempt = job.j_attempts;
                 resume_from });
          incr reclaims;
          Metrics.incr reclaims_c;
          ignore (spawn_worker ());
          job.j_failures <- job.j_failures + 1;
          job.j_params <- None;
          job.j_pending <- None;
          if job.j_failures > config.max_retries then
            finish job
              (Failed
                 (Printf.sprintf
                    "retry budget exhausted after %d attempts (last: %s)"
                    job.j_attempts msg))
          else begin
            job.j_state <- Queued;
            job.j_not_before <-
              !now
              +. config.retry_backoff
                 *. (2.0 ** float_of_int (job.j_failures - 1));
            waiting := !waiting @ [ qid ];
            set_depth ()
          end
        | _ -> ())
      | Some _ | None -> ())
    | E_poll ->
      (* Deadline shedding: queued work whose deadline already passed can
         only waste a worker — drop it now rather than dispatch it. *)
      List.iter
        (fun qid ->
          match Hashtbl.find_opt jobs qid with
          | Some job
            when (match job.j_deadline with
                  | Some dl -> dl <= !now
                  | None -> false) ->
            waiting := List.filter (fun id -> id <> qid) !waiting;
            incr sheds;
            Metrics.incr shed_c;
            reject job "deadline-shed"
          | Some _ | None -> ())
        !waiting;
      let ready =
        List.filter
          (fun qid ->
            match Hashtbl.find_opt jobs qid with
            | Some job -> job.j_not_before <= !now
            | None -> false)
          !waiting
        (* Class priority decides dispatch order; FIFO breaks ties (the
           sort is stable and [waiting] is in submission order). *)
        |> List.stable_sort (fun a b ->
               let rank qid =
                 match Hashtbl.find_opt jobs qid with
                 | Some j -> class_rank j.j_class
                 | None -> max_int
               in
               compare (rank a) (rank b))
      in
      let idle =
        Hashtbl.fold (fun w s acc -> if s = None then w :: acc else acc)
          workers []
        |> List.sort compare
      in
      let rec assign ws qs =
        match (ws, qs) with
        | w :: ws', qid :: qs' ->
          waiting := List.filter (fun id -> id <> qid) !waiting;
          start_attempt (Hashtbl.find jobs qid) w;
          assign ws' qs'
        | _ -> ()
      in
      assign idle ready;
      set_depth ();
      let found = List.length ready in
      incr polls;
      if found > 0 then incr busy_polls;
      Metrics.incr polls_c;
      let before = Poll_controller.interval pc in
      let interval = Poll_controller.record pc ~found in
      if interval < !min_seen then min_seen := interval;
      if interval > !max_seen then max_seen := interval;
      Metrics.set interval_g (interval /. 1e6);
      if interval <> before then
        emit ~at:!now
          (Trace.Poll_interval_changed
             { from_s = before /. 1e6; to_s = interval /. 1e6; found });
      let busy_worker =
        Hashtbl.fold (fun _ s acc -> acc || s <> None) workers false
      in
      if !waiting <> [] || busy_worker || not (Heap.is_empty heap) then
        schedule (!now +. interval) E_poll
  in
  (* Boot: the pool comes up at time zero, the script is enqueued, and
     the dispatcher starts polling. *)
  for _ = 1 to config.workers do
    ignore (spawn_worker ())
  done;
  List.iter
    (fun (at_s, d) ->
      let at = at_s *. 1e6 in
      match d with
      | Script.Submit { qid; spec; klass; deadline_s } ->
        schedule at (E_submit (qid, spec, klass, deadline_s))
      | Script.Kill { qid; point } -> schedule at (E_kill (qid, point))
      | Script.Cancel qid -> schedule at (E_cancel qid)
      | Script.Drain -> schedule at E_drain)
    script;
  schedule 0.0 E_poll;
  let rec loop () =
    if not (Heap.is_empty heap) then begin
      let at, _, ev = Heap.pop heap in
      now := Float.max !now at;
      handle ev;
      loop ()
    end
  in
  loop ();
  let queries =
    List.rev_map
      (fun qid ->
        let j = Hashtbl.find jobs qid in
        { qr_id = j.j_id; qr_spec = j.j_spec; qr_class = j.j_class;
          qr_deadline_s = Option.map (fun d -> d /. 1e6) j.j_deadline;
          qr_outcome =
            (match j.j_outcome with
             | Some o -> o
             | None -> Failed "server stopped before the query finished");
          qr_submitted_s = j.j_submitted /. 1e6;
          qr_finished_s = j.j_finished /. 1e6; qr_attempts = j.j_attempts;
          qr_warm_signatures = j.j_warm_sigs;
          qr_warm_plan_changed = j.j_warm_changed })
      !order
  in
  let count f = List.length (List.filter f queries) in
  let initial = config.poll.Poll_controller.max_interval in
  { r_queries = queries;
    r_done = count (fun q -> match q.qr_outcome with Done _ -> true | _ -> false);
    r_failed =
      count (fun q -> match q.qr_outcome with Failed _ -> true | _ -> false);
    r_cancelled = count (fun q -> q.qr_outcome = Cancelled);
    r_rejected =
      count (fun q -> match q.qr_outcome with Rejected _ -> true | _ -> false);
    r_shed = !sheds;
    r_workers_spawned = !spawned; r_workers_died = !died;
    r_reclaims = !reclaims; r_polls = !polls; r_busy_polls = !busy_polls;
    r_min_interval_s =
      (if !polls = 0 then initial /. 1e6 else !min_seen /. 1e6);
    r_max_interval_s =
      (if !polls = 0 then initial /. 1e6 else !max_seen /. 1e6);
    r_finished_s = !now /. 1e6;
    r_shared_signatures = Selectivity.size shared }

(* ------------------------------------------------------------------ *)
(* Resolver                                                           *)
(* ------------------------------------------------------------------ *)

let tpch_resolver ?(with_cardinalities = false) ?seed ds spec =
  let q =
    match Workload.of_name spec with
    | Some wq -> Workload.query wq
    | None -> (
      let spec = String.trim spec in
      try Sql_parser.parse ~schema_of:Tpch.schema_of spec
      with Sql_parser.Parse_error m ->
        raise
          (Diagnostic.Failed
             ( "server.resolve",
               [ Diagnostic.error ~code:"server-bad-query" ~path:spec m ] )))
  in
  { r_query = q; r_catalog = Workload.catalog ~with_cardinalities ds q;
    r_sources = Workload.sources ?seed ds q }

(* ------------------------------------------------------------------ *)
(* Report views                                                       *)
(* ------------------------------------------------------------------ *)

type query_view = {
  v_id : string;
  v_spec : string;
  v_class : string;
  v_deadline_s : float;
  v_outcome : string;
  v_reason : string;
  v_submitted_s : float;
  v_finished_s : float;
  v_attempts : int;
  v_result_card : int;
  v_time_s : float;
  v_coverage : float;
  v_degraded : string;
  v_breaker_trips : int;
  v_resumed_phases : int;
  v_checkpoints : int;
  v_warm_signatures : int;
  v_warm_plan_changed : bool;
}

type view = {
  vr_queries : query_view list;
  vr_done : int;
  vr_failed : int;
  vr_cancelled : int;
  vr_rejected : int;
  vr_shed : int;
  vr_workers_spawned : int;
  vr_workers_died : int;
  vr_reclaims : int;
  vr_polls : int;
  vr_busy_polls : int;
  vr_min_interval_s : float;
  vr_max_interval_s : float;
  vr_finished_s : float;
  vr_shared_signatures : int;
}

let view r =
  let qv (q : query_report) =
    let outcome, reason =
      match q.qr_outcome with
      | Done _ -> ("done", "")
      | Failed m -> ("failed", m)
      | Cancelled -> ("cancelled", "")
      | Rejected m -> ("rejected", m)
    in
    let card, time_s, coverage, resumed, ckpts, degraded, trips =
      match q.qr_outcome with
      | Done { stats; _ } ->
        ( stats.Corrective.result_card,
          stats.Corrective.total_time /. 1e6, stats.Corrective.coverage,
          stats.Corrective.resumed_phases, stats.Corrective.checkpoints,
          Option.value ~default:"" stats.Corrective.degraded_reason,
          stats.Corrective.breaker_trips )
      | _ -> (0, 0.0, 0.0, 0, 0, "", 0)
    in
    { v_id = q.qr_id; v_spec = q.qr_spec;
      v_class = Option.value ~default:"" q.qr_class;
      v_deadline_s = Option.value ~default:0.0 q.qr_deadline_s;
      v_outcome = outcome;
      v_reason = reason; v_submitted_s = q.qr_submitted_s;
      v_finished_s = q.qr_finished_s; v_attempts = q.qr_attempts;
      v_result_card = card; v_time_s = time_s; v_coverage = coverage;
      v_degraded = degraded; v_breaker_trips = trips;
      v_resumed_phases = resumed; v_checkpoints = ckpts;
      v_warm_signatures = q.qr_warm_signatures;
      v_warm_plan_changed = q.qr_warm_plan_changed }
  in
  { vr_queries = List.map qv r.r_queries; vr_done = r.r_done;
    vr_failed = r.r_failed; vr_cancelled = r.r_cancelled;
    vr_rejected = r.r_rejected; vr_shed = r.r_shed;
    vr_workers_spawned = r.r_workers_spawned;
    vr_workers_died = r.r_workers_died; vr_reclaims = r.r_reclaims;
    vr_polls = r.r_polls; vr_busy_polls = r.r_busy_polls;
    vr_min_interval_s = r.r_min_interval_s;
    vr_max_interval_s = r.r_max_interval_s; vr_finished_s = r.r_finished_s;
    vr_shared_signatures = r.r_shared_signatures }

let pp_view ppf v =
  let fnum = Json.float_str in
  Format.fprintf ppf "server report:@.";
  List.iter
    (fun (q : query_view) ->
      let status =
        match q.v_outcome with
        | "done" ->
          Printf.sprintf "done: %d rows in %s virtual s, coverage %.1f%%"
            q.v_result_card (fnum q.v_time_s) (100.0 *. q.v_coverage)
        | o when q.v_reason <> "" -> Printf.sprintf "%s: %s" o q.v_reason
        | o -> o
      in
      Format.fprintf ppf "  %-8s [%s]  %s@." q.v_id q.v_spec status;
      if q.v_class <> "" || q.v_deadline_s > 0.0 then
        Format.fprintf ppf "           %s%s%s@."
          (if q.v_class <> "" then "class " ^ q.v_class else "")
          (if q.v_class <> "" && q.v_deadline_s > 0.0 then ", " else "")
          (if q.v_deadline_s > 0.0 then
             Printf.sprintf "deadline %s s" (fnum q.v_deadline_s)
           else "");
      if q.v_degraded <> "" then
        Format.fprintf ppf
          "           DEGRADED (%s): partial answer, coverage %.1f%%@."
          q.v_degraded (100.0 *. q.v_coverage);
      if q.v_breaker_trips > 0 then
        Format.fprintf ppf "           circuit breaker tripped %d time%s@."
          q.v_breaker_trips (if q.v_breaker_trips = 1 then "" else "s");
      if q.v_attempts > 1 || q.v_resumed_phases > 0 then
        Format.fprintf ppf
          "           attempts %d, resumed phases %d, checkpoints %d@."
          q.v_attempts q.v_resumed_phases q.v_checkpoints;
      if q.v_warm_signatures > 0 then
        Format.fprintf ppf
          "           warm start: %d inherited signature%s%s@."
          q.v_warm_signatures
          (if q.v_warm_signatures = 1 then "" else "s")
          (if q.v_warm_plan_changed then " (initial plan changed)" else ""))
    v.vr_queries;
  Format.fprintf ppf
    "outcomes: %d done, %d failed, %d cancelled, %d rejected@." v.vr_done
    v.vr_failed v.vr_cancelled v.vr_rejected;
  if v.vr_shed > 0 then
    Format.fprintf ppf
      "deadline shedding: %d queued quer%s dropped past deadline@."
      v.vr_shed
      (if v.vr_shed = 1 then "y" else "ies");
  Format.fprintf ppf
    "workers: %d spawned, %d died, %d queries reclaimed@."
    v.vr_workers_spawned v.vr_workers_died v.vr_reclaims;
  Format.fprintf ppf
    "dispatcher: %d polls (%d busy), interval %s..%s s@." v.vr_polls
    v.vr_busy_polls (fnum v.vr_min_interval_s) (fnum v.vr_max_interval_s);
  Format.fprintf ppf
    "shared statistics: %d selectivity signature%s; finished at %s virtual \
     s@."
    v.vr_shared_signatures
    (if v.vr_shared_signatures = 1 then "" else "s")
    (fnum v.vr_finished_s)
