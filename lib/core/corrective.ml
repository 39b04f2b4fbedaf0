open Adp_exec
open Adp_storage
open Adp_optimizer
module Analyzer = Adp_analysis.Analyzer
module Diagnostic = Adp_analysis.Diagnostic
module Checkpoint = Adp_recovery.Checkpoint
module Crash = Adp_recovery.Crash
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Profile = Adp_obs.Profile
module Calibrate = Adp_obs.Calibrate

type config = {
  poll_interval : float;
  switch_threshold : float;
  min_leaf_seen : int;
  preagg : Optimizer.preagg_strategy;
  costs : Cost_model.t;
  reuse_intermediates : bool;
  initial_plan : Plan.spec option;
  memory_budget : int option;
  use_histograms : bool;
  retry : Retry.policy;
  deadline : float option;
  memory_ceiling : int option;
  breaker : Breaker.policy option;
  checkpoint : Checkpoint.policy option;
  resume_from : string option;
  crash : Crash.point list;
  trace : Trace.t;
  metrics : Metrics.t option;
  profile : Profile.t option;
  calibrate : Calibrate.t option;
  wall : Adp_obs.Wallclock.t option;
  stats_seed : Adp_stats.Selectivity.dump option;
}

let default_config =
  { poll_interval = 1e6; switch_threshold = 0.7; min_leaf_seen = 100;
    preagg = Optimizer.No_preagg; costs = Cost_model.default;
    reuse_intermediates = true;
    initial_plan = None; memory_budget = None; use_histograms = false;
    retry = Retry.default_policy; deadline = None; memory_ceiling = None;
    breaker = None; checkpoint = None; resume_from = None;
    crash = []; trace = Trace.null; metrics = None; profile = None;
    calibrate = None; wall = None; stats_seed = None }

(* §4.3: the optimizer "factors in the amount of computation that has
   already been performed" — a switch is only worthwhile while enough
   input remains for the better plan to pay for the stitch-up; below
   this fraction of the expected total input, the running plan is
   kept. *)
let min_remaining_fraction = 0.25

(* Switching stops once this many phases have run. *)
let max_phases = 8

type phase_info = {
  id : int;
  plan_desc : string;
  emitted : int;
  read : int;
}

type stats = {
  phases : int;
  stitch : Stitchup.stats;
  total_time : float;
  cpu : float;
  idle : float;
  result_card : int;
  phase_log : phase_info list;
  coverage : float;
  retries : int;
  failovers : int;
  sources_failed : int;
  checkpoints : int;
  paged_out : int;
  resumed_phases : int;
  degraded_reason : string option;
  breaker_trips : int;
  learned : Adp_stats.Selectivity.dump;
}

(* One summary per join column of every source, always on: §4.5 shows
   order detection is what makes join sizes predictable on sorted
   sources — a sorted prefix reveals the key density and multiplicity,
   and the full range extrapolates from the fraction consumed.  With
   [use_histograms] the summary also keeps the §4.5 histogram, and every
   value it takes is charged.  Without, a column that has stopped being
   sorted costs one test per tuple. *)
let attach_sides ctx ~use_histograms (query : Logical.query) sources =
  List.concat_map
    (fun src ->
      let name = Source.name src in
      List.concat_map
        (fun (a, b) ->
          List.filter (fun c -> Logical.relation_of_column c = name) [ a; b ])
        query.join_preds
      |> List.sort_uniq String.compare
      |> List.map (fun col ->
             let idx = Adp_relation.Schema.index (Source.schema src) col in
             let side = Adp_stats.Join_estimator.side ~use_histograms in
             Source.observe src
               (Adp_stats.Join_estimator.column_observer side idx
                  ~on_hist:(fun () ->
                    Ctx.charge ctx ctx.Ctx.costs.histogram_add));
             (col, side)))
    sources

(* A leaf's selection pass rate: observed, else its filter's default.  The
   monitors see the raw streams, so their join estimates are scaled by
   both leaves' rates. *)
let filter_sel (query : Logical.query) sels r =
  match
    Adp_stats.Selectivity.lookup sels (Logical.signature_of_set query [ r ])
  with
  | Some sel -> sel
  | None ->
    let s = List.find (fun s -> s.Logical.name = r) query.Logical.sources in
    Cardinality.filter_selectivity s.Logical.filter

(* Fold the monitor's counters for the running phase into the selectivity
   registry: per-leaf filter pass rates, per-join-subexpression
   selectivities (out over the product of raw leaf reads), and
   multiplicative-join flags (§4.2). *)
let update_observations cfg query catalog sels sources sides plan =
  (* Source cardinalities: the consumed count is a sound lower bound, and
     an exhausted sequential source reveals its exact cardinality —
     whatever the source description claimed. *)
  List.iter
    (fun src ->
      let name = Source.name src in
      Adp_stats.Selectivity.observe_cardinality sels ~relation:name
        ~seen:(Source.consumed src);
      (* An exhausted sequential source reveals its exact cardinality; a
         permanently failed one will never deliver more, so for planning
         purposes its final cardinality is whatever got through. *)
      if Source.finished src then
        Adp_stats.Selectivity.observe_final_cardinality sels ~relation:name
          ~total:(Source.consumed src))
    sources;
  let leaves = Plan.leaf_counts plan in
  let seen_of r =
    match List.find_opt (fun (l : Plan.leaf_count) -> l.source = r) leaves with
    | Some l -> l.seen
    | None -> 0
  in
  (* Expected total cardinality of a source: exact after exhaustion,
     otherwise the catalog floored by what was read. *)
  let expected_total r =
    match Adp_stats.Selectivity.final_cardinality sels r with
    | Some total -> float_of_int (max 1 total)
    | None ->
      (* Growth prior for an unexhausted source: once it has outgrown the
         catalog's guess, assume at least as much again is still coming —
         otherwise estimates go stale and declare the query nearly done. *)
      max (Catalog.cardinality catalog r) (2.0 *. float_of_int (seen_of r))
  in
  (* Extrapolating a subexpression's final output from a prefix: the
     product form (selectivity times the product of remaining input
     ratios) over-predicts badly when sources are sorted on the join key —
     aligned prefixes over-match (cf. §4.5) — while the linear form
     (output grows with the largest input, the key-FK behaviour §4.2
     leans on) under-predicts when more matching mass lies ahead.  Their
     geometric mean hedges both failure modes, in the same averaging
     spirit as the paper's estimator. *)
  let predict_output ?(aligned = false) out rels =
    let ratios =
      List.filter_map
        (fun r ->
          if seen_of r = 0 then None
          else Some (max 1.0 (expected_total r /. float_of_int (seen_of r))))
        rels
    in
    let linear = List.fold_left max 1.0 ratios in
    let product = List.fold_left ( *. ) 1.0 ratios in
    (* Sorted-aligned inputs: the prefixes over-match, so the product form
       is invalid and output grows linearly with the dominant input. *)
    if aligned then float_of_int out *. linear
    else float_of_int out *. sqrt (linear *. product)
  in
  let sorted_col col =
    match List.assoc_opt col sides with
    | Some s -> Adp_stats.Join_estimator.detected_sorted s
    | None -> false
  in
  let aligned_pred p =
    List.exists
      (fun (a, b) -> Plan.canon_pred a b = p && sorted_col a && sorted_col b)
      query.Logical.join_preds
  in
  (* Sorted-aligned two-way joins are predictable from the prefix alone
     (§4.5): each side's prefix reveals its value density and average
     multiplicity, and the full key range extrapolates from the fraction
     consumed. *)
  let sorted_pair_estimate (a, b) =
    let usable s =
      let lo, hi = Adp_stats.Join_estimator.sorted_range s in
      Adp_stats.Join_estimator.detected_sorted s && hi > lo
    in
    match List.assoc_opt a sides, List.assoc_opt b sides with
    | Some sa, Some sb when usable sa && usable sb ->
      let side s r =
        let frac = min 1.0 (float_of_int (seen_of r) /. expected_total r) in
        let lo, hi =
          Adp_stats.Join_estimator.extrapolated_range
            (Adp_stats.Join_estimator.sorted_range s) frac
        in
        (lo, hi, expected_total r,
         Adp_stats.Join_estimator.sorted_multiplicity s)
      in
      let ra = Logical.relation_of_column a
      and rb = Logical.relation_of_column b in
      Some
        (Adp_stats.Join_estimator.sorted_overlap (side sa ra) (side sb rb)
        *. filter_sel query sels ra *. filter_sel query sels rb)
    | _ -> None
  in
  List.iter
    (fun (l : Plan.leaf_count) ->
      let leaf_sig = Logical.signature_of_set query [ l.source ] in
      if l.signature = leaf_sig && l.seen >= cfg.min_leaf_seen then begin
        Adp_stats.Selectivity.observe sels ~signature:leaf_sig
          ~output:(float_of_int l.passed)
          ~input_product:(float_of_int l.seen);
        Adp_stats.Selectivity.observe_output sels ~signature:leaf_sig
          ~cardinality:(predict_output l.passed [ l.source ])
      end)
    leaves;
  List.iter
    (fun (info : Plan.join_info) ->
      let enough =
        List.for_all (fun r -> seen_of r >= cfg.min_leaf_seen) info.relations
      in
      if enough then begin
        let product =
          List.fold_left
            (fun acc r -> acc *. float_of_int (seen_of r))
            1.0 info.relations
        in
        Adp_stats.Selectivity.observe sels ~signature:info.signature
          ~output:(float_of_int info.out_count) ~input_product:product;
        let aligned = List.exists aligned_pred info.predicate in
        Adp_stats.Selectivity.observe_output sels ~signature:info.signature
          ~cardinality:(predict_output ~aligned info.out_count info.relations);
        (* For a sorted-aligned two-way join, the range-extrapolated
           prediction sees the full output long before the monitor's
           counters do. *)
        (if List.length info.relations = 2 then
           let est =
             List.find_map
               (fun (a, b) ->
                 if List.mem (Plan.canon_pred a b) info.predicate then
                   sorted_pair_estimate (a, b)
                 else None)
               query.Logical.join_preds
           in
           match est with
           | Some est when est > 0.0 ->
             Adp_stats.Selectivity.observe_output sels
               ~signature:info.signature ~cardinality:est
           | Some _ | None -> ());
        let biggest_input = max info.left_out info.right_out in
        if biggest_input >= cfg.min_leaf_seen
           && info.out_count > biggest_input
        then begin
          let factor =
            float_of_int info.out_count /. float_of_int biggest_input
          in
          List.iter
            (fun p ->
              Adp_stats.Selectivity.flag_multiplicative sels ~predicate:p
                ~factor)
            info.predicate
        end
      end)
    (Plan.join_infos plan)

let plan_desc spec = Format.asprintf "%a" Plan.pp_spec spec

(* §4.5 extension: at poll time the histograms predict two-way join
   outputs — including joins the running plan is not executing, which
   pure monitoring can never observe. *)
let feed_histogram_predictions cfg (query : Logical.query) catalog sels sides
    sources =
  let consumed r =
    match List.find_opt (fun s -> Source.name s = r) sources with
    | Some s -> Source.consumed s
    | None -> 0
  in
  let expected_total r =
    match Adp_stats.Selectivity.final_cardinality sels r with
    | Some total -> float_of_int (max 1 total)
    | None -> max (Catalog.cardinality catalog r) (float_of_int (consumed r))
  in
  List.iter
    (fun (a, b) ->
      let ra = Logical.relation_of_column a
      and rb = Logical.relation_of_column b in
      match List.assoc_opt a sides, List.assoc_opt b sides with
      | Some sa, Some sb
        when consumed ra >= cfg.min_leaf_seen
             && consumed rb >= cfg.min_leaf_seen ->
        let frac r =
          min 1.0 (float_of_int (consumed r) /. expected_total r)
        in
        let raw_est =
          Adp_stats.Join_estimator.estimate
            ~left:(sa, frac ra)
            ~right:(sb, frac rb)
        in
        let est =
          raw_est *. filter_sel query sels ra *. filter_sel query sels rb
        in
        Adp_stats.Selectivity.observe_output sels
          ~signature:(Logical.signature_of_set query [ ra; rb ])
          ~cardinality:est
      | _ -> ())
    query.Logical.join_preds

let run ?(config = default_config) query catalog sources =
  let cfg = config in
  let sels = Adp_stats.Selectivity.create () in
  (* Cross-query warm start: seed the monitor with statistics learned by
     earlier executions (a server's shared store).  Seeding happens before
     any checkpoint is absorbed, so on resume the interrupted run's own
     observations win over inherited ones. *)
  (match cfg.stats_seed with
   | Some d -> Adp_stats.Selectivity.absorb sels d
   | None -> ());
  let ctx =
    Ctx.create ~costs:cfg.costs ~trace:cfg.trace ?metrics:cfg.metrics
      ?profile:cfg.profile ?wall:cfg.wall ()
  in
  let sides =
    attach_sides ctx ~use_histograms:cfg.use_histograms query sources
  in
  let schema_of = Catalog.schema_of catalog in
  let keep = Logical.keep query in
  let phase_label id = Printf.sprintf "phase %d" id in
  (* Calibration: freeze the optimizer's per-node cardinality belief when
     the phase that introduces the node opens, and at every recording
     point compare it against the refreshed §4.2 estimate.  All of it
     goes through the estimator, which never charges the virtual clock,
     so calibration is invisible to virtual time. *)
  let priors : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let rec calib_nodes spec =
    match spec with
    | Plan.Scan _ -> [ (plan_desc spec, Plan.relations spec) ]
    | Plan.Preagg { child; _ } -> calib_nodes child
    | Plan.Join { left; right; _ } ->
      (plan_desc spec, Plan.relations spec)
      :: (calib_nodes left @ calib_nodes right)
  in
  let node_estimate est = function
    | [ r ] -> Cardinality.leaf_cardinality est r
    | rels -> Cardinality.set_cardinality est rels
  in
  let freeze_priors spec =
    if cfg.calibrate <> None then begin
      let est = Cardinality.create query catalog sels in
      List.iter
        (fun (node, rels) ->
          if not (Hashtbl.mem priors node) then
            Hashtbl.replace priors node (node_estimate est rels))
        (calib_nodes spec)
    end
  in
  let record_observations ?est cal ~phase ~point spec =
    let est =
      match est with
      | Some e -> e
      | None -> Cardinality.create query catalog sels
    in
    List.iter
      (fun (node, rels) ->
        let actual = node_estimate est rels in
        let prior =
          match Hashtbl.find_opt priors node with
          | Some p -> p
          | None ->
            Hashtbl.replace priors node actual;
            actual
        in
        Calibrate.observe cal ~phase ~at:(Ctx.now ctx /. 1e6) ~point ~node
          ~est:prior ~actual)
      (calib_nodes spec)
  in
  (* Static analysis before any tuple flows: a bad knob, query, or plan
     fails here with every problem listed at once, instead of surfacing as
     an Invalid_argument somewhere mid-run. *)
  let lookup r = try Some (schema_of r) with Not_found -> None in
  Diagnostic.raise_if_errors ~where:"corrective"
    (Analyzer.check_knobs ~poll_interval:cfg.poll_interval
       ~switch_threshold:cfg.switch_threshold ~min_leaf_seen:cfg.min_leaf_seen
       ~retry:cfg.retry
    @ Analyzer.check_governance ~poll_interval:cfg.poll_interval
        ~deadline:cfg.deadline ~memory_budget:cfg.memory_budget
        ~memory_ceiling:cfg.memory_ceiling ~breaker:cfg.breaker
    @ Analyzer.check_query ~lookup query);
  (* Circuit breakers persist across phases — unlike retry controllers,
     which every [Driver.run] call recreates — so a source that trips in
     phase 1 is still remembered open in phase 2. *)
  let breakers =
    Option.map
      (fun policy ->
        Array.of_list
          (List.mapi (fun i _ -> Breaker.create ~salt:i policy) sources))
      cfg.breaker
  in
  let degraded = ref None in
  let fp = Checkpoint.fingerprint query in
  (* Recovery (tentpole): load the checkpoint, validate it against this
     query and these sources, and absorb its observed statistics so the
     initial plan of the resumed execution is re-optimized with everything
     the interrupted run had learned. *)
  let resume =
    match cfg.resume_from with
    | None -> None
    | Some path ->
      let path =
        if Sys.file_exists path && Sys.is_directory path then
          match Checkpoint.latest ~dir:path with
          | Some p -> p
          | None ->
            raise
              (Diagnostic.Failed
                 ( "corrective.resume",
                   [ Diagnostic.errorf ~code:"ckpt-none-found" ~path
                       "no checkpoint files in directory" ] ))
        else path
      in
      (match Checkpoint.load path with
       | Error diags -> raise (Diagnostic.Failed ("corrective.resume", diags))
       | Ok ck ->
         let fp_diags =
           if ck.Checkpoint.fingerprint = fp then []
           else
             [ Diagnostic.errorf ~code:"ckpt-fingerprint-mismatch" ~path
                 "checkpoint was written by a different query" ]
         in
         let src_cards =
           List.map (fun s -> Source.name s, Source.cardinality s) sources
         in
         Diagnostic.raise_if_errors ~where:"corrective.resume"
           (fp_diags
           @ Analyzer.check_checkpoint_regions
               ~ledger:(Checkpoint.ledger ck) ~sources:src_cards);
         Adp_stats.Selectivity.absorb sels ck.Checkpoint.stats;
         Some (path, ck))
  in
  let resume = Option.map snd resume
  and resume_path = Option.map fst resume in
  let initial_spec =
    match cfg.initial_plan with
    | Some spec ->
      (* Every plan of one execution must carry the same pre-aggregation
         treatment so equivalent subexpressions share schemas (§3.2). *)
      let rewritten = Optimizer.apply_preagg_strategy cfg.preagg query spec in
      Diagnostic.raise_if_errors ~where:"corrective.initial-plan"
        (Analyzer.check_plan_for_query ~lookup query spec
        @ Analyzer.check_equivalent ~before:spec ~after:rewritten);
      rewritten
    | None ->
      let spec =
        (Optimizer.optimize ~preagg:cfg.preagg ~costs:cfg.costs query catalog
           sels)
          .spec
      in
      Diagnostic.raise_if_errors ~where:"corrective.optimizer"
        (Analyzer.check_plan_for_query ~lookup query spec);
      spec
  in
  (* A run with no poll interval never switches: a failover still
     triggers a poll, but the guard below keeps it in its phase.  So only
     a checkpoint or a resume reads such a run's intermediates back. *)
  let polls = Float.is_finite cfg.poll_interval in
  let record_outputs = polls || cfg.checkpoint <> None || resume <> None in
  let restored =
    match resume with
    | None -> []
    | Some ck -> ck.Checkpoint.completed @ Option.to_list ck.Checkpoint.current
  in
  (match resume with
   | None -> ()
   | Some _ ->
     (* Every restored plan plus the new phase's plan must share the same
        effective leaves and output schema — the standard cross-phase
        conformance invariant, now spanning the crash. *)
     Diagnostic.raise_if_errors ~where:"corrective.resume"
       (Analyzer.check_conformance
          (List.map (fun pr -> pr.Checkpoint.pr_spec) restored
          @ [ initial_spec ])));
  (* Only a checkpoint's capture reads a new phase's root outputs back. *)
  let open_phase ?(record_outputs = record_outputs)
      ?(record_root = cfg.checkpoint <> None) ~id spec =
    Ctx.set_phase ctx (phase_label id);
    freeze_priors spec;
    Phase.create ~record_outputs ~record_root ~id ctx spec ~schema_of ~keep
  in
  let phase_opened (ph : Phase.t) =
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Trace.Phase_opened
           { id = ph.Phase.id; plan = plan_desc ph.Phase.spec })
  in
  (* Checkpoint I/O is wall-only work: the load above, the restore below
     and every save stamp a bucket of their own, the load in the resumed
     phase's. *)
  if resume <> None then begin
    Ctx.set_phase ctx (phase_label (List.length restored));
    Ctx.wall_bucket ctx "(checkpoint)"
  end;
  let current = ref (open_phase ~id:(List.length restored) initial_spec) in
  let sink = Sink.create ctx query ~canonical:(Plan.schema !current.Phase.plan) in
  (* Count a phase's new outputs and hand them to the sink. *)
  let emit (ph : Phase.t) outs =
    if outs <> [] then begin
      ph.Phase.emitted <- ph.Phase.emitted + List.length outs;
      Sink.feed sink ~from:(Plan.schema ph.Phase.plan) outs
    end
  in
  let completed = ref [] in
  (* Recovery is a forced phase switch: close every checkpointed phase at
     its recorded positions.  Re-feed the outputs each had already emitted
     (the sink's state died with the crash) and flush the one interrupted
     mid-phase to a consistent state; stitch-up reads their plans as it
     reads a live phase's.  Tuples below the checkpointed positions belong
     to these phases' regions; the residual input belongs to the new phase
     — that partition of the streams is what makes the resumed answer
     exactly-once. *)
  List.iter
    (fun (pr : Checkpoint.phase_record) ->
      let ph =
        open_phase ~record_outputs:true ~record_root:true
          ~id:pr.Checkpoint.pr_id pr.Checkpoint.pr_spec
      in
      Plan.restore ph.Phase.plan pr.Checkpoint.pr_state;
      ph.Phase.emitted <- pr.Checkpoint.pr_emitted;
      let sch, outs = Plan.root_results ph.Phase.plan in
      (* The charges of one feed of them all, with nothing in between. *)
      Row_log.view_iter (Sink.stream sink ~from:sch) outs;
      Sink.settle sink (Row_log.view_length outs);
      emit ph (Plan.flush ph.Phase.plan);
      ph.Phase.read <- pr.Checkpoint.pr_read;
      ph.Phase.ends <- pr.Checkpoint.pr_ends;
      completed := ph :: !completed)
    restored;
  if restored <> [] then begin
    Ctx.wall_bucket ctx "(checkpoint)";
    Ctx.set_phase ctx (phase_label !current.Phase.id)
  end;
  (* Rebuilding state charged the (fresh) virtual clock; the run proper
     continues from the checkpointed instant and counters. *)
  (match resume with
   | None -> ()
   | Some ck ->
     Clock.restore ctx.Ctx.clock ck.Checkpoint.clock;
     Metrics.set_count ctx.Ctx.tuples_read ck.Checkpoint.tuples_read;
     Metrics.set_count ctx.Ctx.retries ck.Checkpoint.retries;
     Metrics.set_count ctx.Ctx.failovers ck.Checkpoint.failovers;
     Metrics.set_count ctx.Ctx.sources_failed ck.Checkpoint.sources_failed;
     let at = Ctx.now ctx in
     List.iter
       (fun src ->
         match
           List.assoc_opt (Source.name src) ck.Checkpoint.positions
         with
         | Some pos -> Source.resume_at src ~pos ~at
         | None -> ())
       sources;
     if Ctx.traced ctx then
       Ctx.emit ctx
         (Trace.Checkpoint_resumed
            { seq = ck.Checkpoint.seq;
              path = Option.value ~default:"" resume_path;
              phases = List.length restored }));
  let next_spec = ref None in
  let phase_count () = List.length !completed + 1 in
  let tuples_read () = Metrics.count ctx.Ctx.tuples_read in
  let reads_before = ref (tuples_read ()) in
  let ckpt_seq =
    ref (match resume with Some ck -> ck.Checkpoint.seq | None -> 0)
  in
  let last_ckpt_read = ref (tuples_read ()) in
  let crash = Crash.injector cfg.crash in
  let positions () =
    List.map (fun s -> Source.name s, Source.consumed s) sources
  in
  let phase_record (ph : Phase.t) ~read ~ends =
    { Checkpoint.pr_id = ph.Phase.id; pr_spec = ph.Phase.spec;
      pr_state = Plan.capture ph.Phase.plan; pr_emitted = ph.Phase.emitted;
      pr_read = read; pr_ends = ends }
  in
  let write_checkpoint (policy : Checkpoint.policy) ~include_current =
    incr ckpt_seq;
    let ck =
      { Checkpoint.seq = !ckpt_seq; fingerprint = fp;
        clock = Clock.capture ctx.Ctx.clock;
        tuples_read = tuples_read ();
        retries = Metrics.count ctx.Ctx.retries;
        failovers = Metrics.count ctx.Ctx.failovers;
        sources_failed = Metrics.count ctx.Ctx.sources_failed;
        positions = positions ();
        stats = Adp_stats.Selectivity.dump sels;
        completed =
          List.rev_map
            (fun (ph : Phase.t) ->
              phase_record ph ~read:ph.Phase.read ~ends:ph.Phase.ends)
            !completed;
        current =
          (if include_current then
             Some
               (phase_record !current
                  ~read:(tuples_read () - !reads_before)
                  ~ends:(positions ()))
           else None) }
    in
    let path, bytes = Checkpoint.save ~dir:policy.Checkpoint.dir ck in
    Metrics.incr ctx.Ctx.checkpoints;
    Metrics.add ctx.Ctx.checkpoint_bytes bytes;
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Trace.Checkpoint_written { seq = !ckpt_seq; path; bytes });
    Ctx.wall_bucket ctx "(checkpoint)";
    last_ckpt_read := tuples_read ()
  in
  let consume src tuple =
    let ph = !current in
    emit ph (Plan.push ph.Phase.plan ~source:(Source.name src) tuple);
    (match cfg.checkpoint with
     | Some ({ Checkpoint.every_tuples = Some n; _ } as p)
       when n > 0 && tuples_read () - !last_ckpt_read >= n ->
       write_checkpoint p ~include_current:true
     | Some _ | None -> ());
    Crash.tuple_consumed crash ~total:(tuples_read ())
  in
  (* Graceful degradation: record why, count it, and answer [`Stop] so the
     driver ends the phase — stitch-up then assembles what arrived and the
     report carries the reason, instead of the run timing out with
     nothing.  [limit] is what was crossed and [value] what crossed it:
     the memory ceiling and the resident tuples, or the deadline and the
     estimated finish in seconds. *)
  let degrade ph reason ~limit ~value =
    if !degraded = None then begin
      degraded := Some reason;
      Metrics.incr ctx.Ctx.degraded;
      if Ctx.traced ctx then
        Ctx.emit ctx
          (Trace.Query_degraded
             { reason; phase = ph.Phase.id;
               coverage = Source.coverage sources; limit; value })
    end;
    `Stop
  in
  let breaker_open i =
    match breakers with
    | Some bks -> Breaker.state bks.(i) = Breaker.Open
    | None -> false
  in
  (* The optimizer's view of source properties: a source whose breaker is
     open is planned as if it had no more data — its observed cardinality
     becomes final — so the re-optimizer reorders joins away from it (and
     [remaining_fraction] stops expecting its missing tuples).  The
     override lives in a transient copy: if the breaker later closes and
     tuples flow again, the real registry was never poisoned. *)
  let planning_sels () =
    match breakers with
    | Some bks
      when Array.exists (fun b -> Breaker.state b = Breaker.Open) bks ->
      let s = Adp_stats.Selectivity.create () in
      Adp_stats.Selectivity.absorb s (Adp_stats.Selectivity.dump sels);
      List.iteri
        (fun i src ->
          if breaker_open i then
            Adp_stats.Selectivity.observe_final_cardinality s
              ~relation:(Source.name src) ~total:(Source.consumed src))
        sources;
      s
    | Some _ | None -> sels
  in
  let poll () =
    let ph = !current in
    if cfg.use_histograms then
      feed_histogram_predictions cfg query catalog sels sides sources;
    (match cfg.memory_budget with
     | Some budget ->
       (* Page-outs are counted and traced inside
          [Plan.apply_memory_pressure]; the per-poll stderr chatter this
          used to print under ADP_DEBUG now lives in the trace. *)
       let sw = Plan.apply_memory_pressure ph.Phase.plan ~budget in
       if sw <> [] then begin
         (* Paged-out state is the state most expensive to lose: it is
            about to leave memory anyway, so snapshotting it now is the
            cheapest moment to make it durable. *)
         match cfg.checkpoint with
         | Some p when p.Checkpoint.on_page_out ->
           write_checkpoint p ~include_current:true
         | Some _ | None -> ()
       end
     | None -> ());
    update_observations cfg query catalog sels sources sides ph.Phase.plan;
    let now = Ctx.now ctx in
    (* Governance first: a crossed hard ceiling or an already-passed
       deadline degrades before any re-optimization work is priced. *)
    let over_ceiling =
      match cfg.memory_ceiling with
      | Some ceiling ->
        let in_use = Plan.memory_footprint ph.Phase.plan in
        if in_use > ceiling then Some (ceiling, in_use) else None
      | None -> None
    in
    match over_ceiling, cfg.deadline with
    | Some (ceiling, in_use), _ ->
      degrade ph "memory" ~limit:(float_of_int ceiling)
        ~value:(float_of_int in_use)
    | None, Some dl when now >= dl ->
      degrade ph "deadline" ~limit:(dl /. 1e6) ~value:(now /. 1e6)
    | None, (Some _ | None) ->
    (* §4.3: factor in work already performed — late in the input there
       is not enough left for a better plan to amortize the stitch-up. *)
    let remaining_fraction =
      let read, expected =
        List.fold_left
          (fun (r, e) (i, src) ->
            let name = Source.name src in
            let total =
              (* An open breaker is a source property: plan as if no more
                 data is coming from it. *)
              if Source.finished src || breaker_open i then
                float_of_int (Source.consumed src)
              else
                max
                  (Catalog.cardinality catalog name)
                  (2.0 *. float_of_int (Source.consumed src))
            in
            r +. float_of_int (Source.consumed src), e +. total)
          (0.0, 0.0)
          (List.mapi (fun i s -> (i, s)) sources)
      in
      if expected <= 0.0 then 0.0 else 1.0 -. (read /. expected)
    in
    (* Cost-to-go of the running plan against the best plan under [s]'s
       estimates, and what switching to it would cost: the regions
       already consumed must later be stitched against everything the new
       plan reads, work roughly proportional to the input fraction already
       processed — the other half of §4.3's "factor in the amount of
       computation already performed".  Estimator and optimizer never
       charge the clock. *)
    let price s =
      let est = Cardinality.create query catalog s in
      let current_cost = Cost.query_cost cfg.costs est ph.Phase.spec in
      let best =
        Optimizer.optimize ~preagg:cfg.preagg ~costs:cfg.costs query catalog s
      in
      (est, current_cost, best,
       best.est_cost *. (1.0 +. (1.0 -. remaining_fraction)))
    in
    let guard =
      if phase_count () >= max_phases || not polls then Some "max-phases"
      else if remaining_fraction < min_remaining_fraction then
        Some "min-remaining"
      else None
    in
    match guard with
    | Some reason ->
      (match cfg.calibrate with
       | None -> ()
       | Some cal ->
         (* The guard fires before costing; when calibrating we still
            compute the would-be costs, so a declined switch (the Q3A
            guarded-rule case) carries the same evidence as a taken
            one. *)
         let est, current_cost, best, switch_cost = price sels in
         record_observations ~est cal ~phase:(phase_label ph.Phase.id)
           ~point:Calibrate.Poll ph.Phase.spec;
         Calibrate.decide cal ~phase:(phase_label ph.Phase.id)
           ~at:(Ctx.now ctx /. 1e6)
           ~verdict:(Calibrate.Kept_guard reason)
           ~current_cost ~best_cost:best.est_cost ~switch_cost
           ~threshold:cfg.switch_threshold);
      `Continue
    | None -> begin
      (* Background re-optimization: cost-to-go of the running plan vs the
         best plan under the refreshed estimates (with any open-breaker
         source pinned at its observed cardinality). *)
      let est, current_cost, best, switch_cost = price (planning_sels ()) in
      match cfg.deadline with
      | Some dl when now +. current_cost > dl ->
        (* §4.3 against the clock: the cost-to-go no longer fits the
           remaining budget, so no switch can save this run — close it
           deliberately and report what arrived. *)
        degrade ph "deadline" ~limit:(dl /. 1e6)
          ~value:((now +. current_cost) /. 1e6)
      | Some _ | None ->
      let switching =
        best.spec <> ph.Phase.spec
        && switch_cost < cfg.switch_threshold *. current_cost
      in
      if Ctx.traced ctx then
        Ctx.emit ctx
          (Trace.Reopt_poll
             { phase = ph.Phase.id; est_cost = current_cost;
               best_cost = best.est_cost;
               best_plan = plan_desc best.spec; switch_cost;
               remaining_fraction;
               observed_sel = Adp_stats.Selectivity.entries sels;
               decision = (if switching then Trace.Switch else Trace.Keep) });
      (match cfg.calibrate with
       | None -> ()
       | Some cal ->
         (* Observations first, so the decision's blame reflects this
            poll's freshly refreshed estimates. *)
         record_observations ~est cal ~phase:(phase_label ph.Phase.id)
           ~point:Calibrate.Poll ph.Phase.spec;
         let verdict =
           if switching then Calibrate.Switched
           else if best.spec = ph.Phase.spec then Calibrate.Kept_same_plan
           else Calibrate.Kept_cost
         in
         Calibrate.decide cal ~phase:(phase_label ph.Phase.id)
           ~at:(Ctx.now ctx /. 1e6) ~verdict ~current_cost
           ~best_cost:best.est_cost ~switch_cost
           ~threshold:cfg.switch_threshold);
      if switching then begin
        (* The re-optimized plan joins a running ADP execution: its regions
           will be stitched against those of every earlier phase, so it
           must cover the same base set with the same effective leaves. *)
        Diagnostic.raise_if_errors ~where:"corrective.switch"
          (Analyzer.check_plan_for_query ~lookup query best.spec
          @ Analyzer.check_conformance
              (List.rev_map (fun (c : Phase.t) -> c.Phase.spec) !completed
              @ [ ph.Phase.spec; best.spec ]));
        if Ctx.traced ctx then
          Ctx.emit ctx
            (Trace.Plan_switch
               { from_plan = plan_desc ph.Phase.spec;
                 to_plan = plan_desc best.spec;
                 reason =
                   Printf.sprintf
                     "switch cost %.0f < %.2f x cost-to-go %.0f with %.0f%% \
                      of input remaining"
                     switch_cost cfg.switch_threshold current_cost
                     (100.0 *. remaining_fraction) });
        next_spec := Some best.spec;
        `Switch
      end
      else `Continue
    end
  in
  let finish_phase () =
    let ph = !current in
    emit ph (Plan.flush ph.Phase.plan);
    update_observations cfg query catalog sels sources sides ph.Phase.plan;
    (match cfg.calibrate with
     | None -> ()
     | Some cal ->
       record_observations cal ~phase:(phase_label ph.Phase.id)
         ~point:Calibrate.Phase_close ph.Phase.spec);
    let read = tuples_read () - !reads_before in
    reads_before := tuples_read ();
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Trace.Phase_closed
           { id = ph.Phase.id; read; emitted = ph.Phase.emitted });
    ph.Phase.read <- read;
    ph.Phase.ends <- positions ();
    completed := ph :: !completed;
    Option.iter
      (fun p -> write_checkpoint p ~include_current:false)
      cfg.checkpoint;
    Crash.phase_closed crash ~id:ph.Phase.id
  in
  let rec drive () =
    match
      Driver.run ctx ~sources ~consume ~poll:(cfg.poll_interval, poll)
        ~retry:cfg.retry ?deadline:cfg.deadline ?breakers ()
    with
    | Driver.Switched ->
      finish_phase ();
      let spec =
        match !next_spec with
        | Some s -> s
        | None -> invalid_arg "Corrective: switch without a plan"
      in
      next_spec := None;
      current := open_phase ~id:(List.length !completed) spec;
      phase_opened !current;
      drive ()
    | Driver.Exhausted -> finish_phase ()
    | Driver.Stopped ->
      (* Deliberate governance stop: close the phase normally so what
         arrived participates in stitch-up like any other phase. *)
      finish_phase ()
  in
  (* The initial phase is announced only now: on resume, after the
     restored clock and the resume event. *)
  phase_opened !current;
  drive ();
  Crash.stitchup_started crash;
  let phases = List.rev !completed in
  let stitch =
    if List.length phases <= 1 then Stitchup.none
    else begin
      let join_tree =
        Stitchup.join_tree ~preagg:cfg.preagg ~costs:cfg.costs
          ~reuse:cfg.reuse_intermediates query catalog sels phases
      in
      (* Before paying for stitch-up, verify the chosen tree symbolically:
         legal pre-aggregation placement and an exactly-covered nᵐ − n
         combination matrix. *)
      Diagnostic.raise_if_errors ~where:"corrective.stitchup"
        (Analyzer.check_stitch_tree ~phases:(List.length phases) query
           join_tree);
      let st =
        Stitchup.run ctx query ~join_tree ~phases
          ~reuse:cfg.reuse_intermediates ~sink
      in
      (match cfg.calibrate with
       | None -> ()
       | Some cal ->
         record_observations cal ~phase:"stitch-up"
           ~point:Calibrate.Stitchup join_tree);
      st
    end
  in
  let result = Sink.result sink in
  let phase_log =
    List.map
      (fun (ph : Phase.t) ->
        { id = ph.Phase.id; plan_desc = plan_desc ph.Phase.spec;
          emitted = ph.Phase.emitted; read = ph.Phase.read })
      phases
  in
  (* The fault/checkpoint/page-out numbers come straight out of the
     metrics registry — the same cells the engine incremented — instead
     of hand-threaded shadow counters. *)
  ( result,
    { phases = List.length phases; stitch;
      total_time = Ctx.now ctx; cpu = Clock.cpu ctx.Ctx.clock;
      idle = Clock.idle ctx.Ctx.clock;
      result_card = Adp_relation.Relation.cardinality result;
      phase_log; coverage = Source.coverage sources;
      retries = Metrics.count ctx.Ctx.retries;
      failovers = Metrics.count ctx.Ctx.failovers;
      sources_failed = Metrics.count ctx.Ctx.sources_failed;
      checkpoints = Metrics.count ctx.Ctx.checkpoints;
      paged_out = Metrics.count ctx.Ctx.paged_out;
      resumed_phases = List.length restored;
      degraded_reason = !degraded;
      breaker_trips = Metrics.count ctx.Ctx.breaker_trips;
      learned = Adp_stats.Selectivity.dump sels } )
