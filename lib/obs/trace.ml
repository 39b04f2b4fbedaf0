type decision = Keep | Switch

type event =
  | Phase_opened of { id : int; plan : string }
  | Phase_closed of { id : int; read : int; emitted : int }
  | Reopt_poll of {
      phase : int;
      est_cost : float;
      best_cost : float;
      best_plan : string;
      switch_cost : float;
      remaining_fraction : float;
      observed_sel : (string * float) list;
      decision : decision;
    }
  | Plan_switch of { from_plan : string; to_plan : string; reason : string }
  | Comp_join_route of { side : string; routed_to : string; routed : int }
  | Agg_window_resize of {
      node : string;
      from_window : int;
      to_window : int;
      reduction : float;
    }
  | Retry of {
      source : string;
      attempt : int;
      ok : bool;
      next_attempt_s : float;
    }
  | Failover of { source : string; ok : bool }
  | Checkpoint_written of { seq : int; path : string; bytes : int }
  | Checkpoint_resumed of { seq : int; path : string; phases : int }
  | Stitchup_begin of { phases : int; combos : int }
  | Stitchup_end of { output : int; reused : int; recomputed : int }
  | Page_out of { node : string }
  | Node_profile of {
      phase : string;
      node : string;
      depth : int;
      self_us : float;
      tuples_in : int;
      tuples_out : int;
      probes : int;
      builds : int;
      mem_hw : int;
    }
  | Calibration of {
      phase : string;
      point : string;
      node : string;
      est : float;
      actual : float;
      q_error : float;
      blame : bool;
    }
  | Worker_spawned of { worker : int }
  | Worker_died of {
      worker : int;
      query : string;
      last_heartbeat_s : float;
    }
  | Worker_reclaimed of {
      worker : int;
      query : string;
      attempt : int;
      resume_from : string;
    }
  | Poll_interval_changed of { from_s : float; to_s : float; found : int }
  | Admission of {
      query : string;
      accepted : bool;
      queue_depth : int;
      reason : string;
    }
  | Deadline_exceeded of {
      deadline_s : float;
      now_s : float;
      est_finish_s : float;
    }
  | Budget_exhausted of { in_use : int; ceiling : int }
  | Query_degraded of { reason : string; phase : int; coverage : float }
  | Breaker_state_changed of {
      source : string;
      from_state : string;
      to_state : string;
      failures : int;
    }
  | Query_attempt of {
      query : string;
      attempt : int;
      worker : int;
      events : int;  (* length of the re-stamped block that follows *)
    }

type stamped = float * event

type file_sink = {
  path : string;
  mutable acc : stamped list;  (* reversed *)
  mutable flushed : bool;
}

type t =
  | Null
  | Memory of stamped list ref
  | File of file_sink

let null = Null
let memory () = Memory (ref [])
let file path = File { path; acc = []; flushed = false }
let enabled = function Null -> false | Memory _ | File _ -> true

let emit t ~at ev =
  match t with
  | Null -> ()
  | Memory r -> r := (at, ev) :: !r
  | File f -> f.acc <- (at, ev) :: f.acc

let events = function
  | Null -> []
  | Memory r -> List.rev !r
  | File f -> List.rev f.acc

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)
(* ------------------------------------------------------------------ *)

let event_name = function
  | Phase_opened _ -> "phase_opened"
  | Phase_closed _ -> "phase_closed"
  | Reopt_poll _ -> "reopt_poll"
  | Plan_switch _ -> "plan_switch"
  | Comp_join_route _ -> "comp_join_route"
  | Agg_window_resize _ -> "agg_window_resize"
  | Retry _ -> "retry"
  | Failover _ -> "failover"
  | Checkpoint_written _ -> "checkpoint_written"
  | Checkpoint_resumed _ -> "checkpoint_resumed"
  | Stitchup_begin _ -> "stitchup_begin"
  | Stitchup_end _ -> "stitchup_end"
  | Page_out _ -> "page_out"
  | Node_profile _ -> "node_profile"
  | Calibration _ -> "calibration"
  | Worker_spawned _ -> "worker_spawned"
  | Worker_died _ -> "worker_died"
  | Worker_reclaimed _ -> "worker_reclaimed"
  | Poll_interval_changed _ -> "poll_interval_changed"
  | Admission _ -> "admission"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Budget_exhausted _ -> "budget_exhausted"
  | Query_degraded _ -> "query_degraded"
  | Breaker_state_changed _ -> "breaker_state_changed"
  | Query_attempt _ -> "query_attempt"

let decision_str = function Keep -> "keep" | Switch -> "switch"

let fields ev : (string * Json.t) list =
  let num f = Json.Num f in
  let int i = Json.Num (float_of_int i) in
  let str s = Json.Str s in
  match ev with
  | Phase_opened { id; plan } -> [ ("id", int id); ("plan", str plan) ]
  | Phase_closed { id; read; emitted } ->
    [ ("id", int id); ("read", int read); ("emitted", int emitted) ]
  | Reopt_poll
      { phase; est_cost; best_cost; best_plan; switch_cost;
        remaining_fraction; observed_sel; decision } ->
    [ ("phase", int phase); ("est_cost", num est_cost);
      ("best_cost", num best_cost); ("best_plan", str best_plan);
      ("switch_cost", num switch_cost);
      ("remaining_fraction", num remaining_fraction);
      ( "observed_sel",
        Json.Obj (List.map (fun (k, v) -> (k, num v)) observed_sel) );
      ("decision", str (decision_str decision)) ]
  | Plan_switch { from_plan; to_plan; reason } ->
    [ ("from", str from_plan); ("to", str to_plan); ("reason", str reason) ]
  | Comp_join_route { side; routed_to; routed } ->
    [ ("side", str side); ("to", str routed_to); ("routed", int routed) ]
  | Agg_window_resize { node; from_window; to_window; reduction } ->
    [ ("node", str node); ("from", int from_window); ("to", int to_window);
      ("reduction", num reduction) ]
  | Retry { source; attempt; ok; next_attempt_s } ->
    [ ("source", str source); ("attempt", int attempt); ("ok", Json.Bool ok);
      ("next_attempt_s", num next_attempt_s) ]
  | Failover { source; ok } -> [ ("source", str source); ("ok", Json.Bool ok) ]
  | Checkpoint_written { seq; path; bytes } ->
    [ ("seq", int seq); ("path", str path); ("bytes", int bytes) ]
  | Checkpoint_resumed { seq; path; phases } ->
    [ ("seq", int seq); ("path", str path); ("phases", int phases) ]
  | Stitchup_begin { phases; combos } ->
    [ ("phases", int phases); ("combos", int combos) ]
  | Stitchup_end { output; reused; recomputed } ->
    [ ("output", int output); ("reused", int reused);
      ("recomputed", int recomputed) ]
  | Page_out { node } -> [ ("node", str node) ]
  | Node_profile
      { phase; node; depth; self_us; tuples_in; tuples_out; probes; builds;
        mem_hw } ->
    [ ("phase", str phase); ("node", str node); ("depth", int depth);
      ("self_us", num self_us); ("in", int tuples_in);
      ("out", int tuples_out); ("probes", int probes);
      ("builds", int builds); ("mem_hw", int mem_hw) ]
  | Calibration { phase; point; node; est; actual; q_error; blame } ->
    [ ("phase", str phase); ("point", str point); ("node", str node);
      ("est", num est); ("actual", num actual); ("q_error", num q_error);
      ("blame", Json.Bool blame) ]
  | Worker_spawned { worker } -> [ ("worker", int worker) ]
  | Worker_died { worker; query; last_heartbeat_s } ->
    [ ("worker", int worker); ("query", str query);
      ("last_heartbeat_s", num last_heartbeat_s) ]
  | Worker_reclaimed { worker; query; attempt; resume_from } ->
    [ ("worker", int worker); ("query", str query); ("attempt", int attempt);
      ("resume_from", str resume_from) ]
  | Poll_interval_changed { from_s; to_s; found } ->
    [ ("from_s", num from_s); ("to_s", num to_s); ("found", int found) ]
  | Admission { query; accepted; queue_depth; reason } ->
    [ ("query", str query); ("accepted", Json.Bool accepted);
      ("queue_depth", int queue_depth); ("reason", str reason) ]
  | Deadline_exceeded { deadline_s; now_s; est_finish_s } ->
    [ ("deadline_s", num deadline_s); ("now_s", num now_s);
      ("est_finish_s", num est_finish_s) ]
  | Budget_exhausted { in_use; ceiling } ->
    [ ("in_use", int in_use); ("ceiling", int ceiling) ]
  | Query_degraded { reason; phase; coverage } ->
    [ ("reason", str reason); ("phase", int phase);
      ("coverage", num coverage) ]
  | Breaker_state_changed { source; from_state; to_state; failures } ->
    [ ("source", str source); ("from", str from_state);
      ("to", str to_state); ("failures", int failures) ]
  | Query_attempt { query; attempt; worker; events } ->
    [ ("query", str query); ("attempt", int attempt);
      ("worker", int worker); ("events", int events) ]

let to_json (at, ev) =
  Json.Obj
    (("ts", Json.Num at) :: ("ev", Json.Str (event_name ev)) :: fields ev)

let of_json j =
  try
    let int k = Json.req j k Json.get_int in
    let num k = Json.req j k Json.get_num in
    let str k = Json.req j k Json.get_str in
    let bool k = Json.req j k Json.get_bool in
    let at = Json.req j "ts" Json.get_num in
    let ev =
      match Json.req j "ev" Json.get_str with
      | "phase_opened" -> Phase_opened { id = int "id"; plan = str "plan" }
      | "phase_closed" ->
        Phase_closed
          { id = int "id"; read = int "read"; emitted = int "emitted" }
      | "reopt_poll" ->
        let observed_sel =
          match Json.member "observed_sel" j with
          | Some (Json.Obj kvs) ->
            List.map
              (fun (k, v) ->
                match Json.get_num v with
                | Some f -> (k, f)
                | None -> raise (Json.Bad "bad selectivity entry"))
              kvs
          | _ -> raise (Json.Bad "missing field \"observed_sel\"")
        in
        let decision =
          match str "decision" with
          | "keep" -> Keep
          | "switch" -> Switch
          | _ -> raise (Json.Bad "bad field \"decision\"")
        in
        Reopt_poll
          { phase = int "phase"; est_cost = num "est_cost";
            best_cost = num "best_cost"; best_plan = str "best_plan";
            switch_cost = num "switch_cost";
            remaining_fraction = num "remaining_fraction"; observed_sel;
            decision }
      | "plan_switch" ->
        Plan_switch
          { from_plan = str "from"; to_plan = str "to"; reason = str "reason" }
      | "comp_join_route" ->
        Comp_join_route
          { side = str "side"; routed_to = str "to"; routed = int "routed" }
      | "agg_window_resize" ->
        Agg_window_resize
          { node = str "node"; from_window = int "from";
            to_window = int "to"; reduction = num "reduction" }
      | "retry" ->
        Retry
          { source = str "source"; attempt = int "attempt"; ok = bool "ok";
            next_attempt_s = num "next_attempt_s" }
      | "failover" -> Failover { source = str "source"; ok = bool "ok" }
      | "checkpoint_written" ->
        Checkpoint_written
          { seq = int "seq"; path = str "path"; bytes = int "bytes" }
      | "checkpoint_resumed" ->
        Checkpoint_resumed
          { seq = int "seq"; path = str "path"; phases = int "phases" }
      | "stitchup_begin" ->
        Stitchup_begin { phases = int "phases"; combos = int "combos" }
      | "stitchup_end" ->
        Stitchup_end
          { output = int "output"; reused = int "reused";
            recomputed = int "recomputed" }
      | "page_out" -> Page_out { node = str "node" }
      | "node_profile" ->
        Node_profile
          { phase = str "phase"; node = str "node"; depth = int "depth";
            self_us = num "self_us"; tuples_in = int "in";
            tuples_out = int "out"; probes = int "probes";
            builds = int "builds"; mem_hw = int "mem_hw" }
      | "calibration" ->
        Calibration
          { phase = str "phase"; point = str "point"; node = str "node";
            est = num "est"; actual = num "actual"; q_error = num "q_error";
            blame = bool "blame" }
      | "worker_spawned" -> Worker_spawned { worker = int "worker" }
      | "worker_died" ->
        Worker_died
          { worker = int "worker"; query = str "query";
            last_heartbeat_s = num "last_heartbeat_s" }
      | "worker_reclaimed" ->
        Worker_reclaimed
          { worker = int "worker"; query = str "query";
            attempt = int "attempt"; resume_from = str "resume_from" }
      | "poll_interval_changed" ->
        Poll_interval_changed
          { from_s = num "from_s"; to_s = num "to_s"; found = int "found" }
      | "admission" ->
        Admission
          { query = str "query"; accepted = bool "accepted";
            queue_depth = int "queue_depth"; reason = str "reason" }
      | "deadline_exceeded" ->
        Deadline_exceeded
          { deadline_s = num "deadline_s"; now_s = num "now_s";
            est_finish_s = num "est_finish_s" }
      | "budget_exhausted" ->
        Budget_exhausted { in_use = int "in_use"; ceiling = int "ceiling" }
      | "query_degraded" ->
        Query_degraded
          { reason = str "reason"; phase = int "phase";
            coverage = num "coverage" }
      | "breaker_state_changed" ->
        Breaker_state_changed
          { source = str "source"; from_state = str "from";
            to_state = str "to"; failures = int "failures" }
      | "query_attempt" ->
        Query_attempt
          { query = str "query"; attempt = int "attempt";
            worker = int "worker"; events = int "events" }
      | other -> raise (Json.Bad (Printf.sprintf "unknown event %S" other))
    in
    Ok (at, ev)
  with Json.Bad msg -> Error msg

let to_jsonl evs =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Json.to_buffer b (to_json ev);
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b

let close t =
  match t with
  | Null | Memory _ -> ()
  | File f ->
    if not f.flushed then begin
      f.flushed <- true;
      Adp_storage.Snapshot.write_text ~path:f.path (to_jsonl (List.rev f.acc))
    end

let read_jsonl path =
  Json.read_lines path
    (fun acc j ->
      match of_json j with
      | Ok ev -> ev :: acc
      | Error msg -> raise (Json.Bad msg))
    []
  |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)
(* ------------------------------------------------------------------ *)

let fnum = Json.float_str

let pp_event ppf ev =
  match ev with
  | Phase_opened { id; plan } ->
    Format.fprintf ppf "phase %d opened: %s" id plan
  | Phase_closed { id; read; emitted } ->
    Format.fprintf ppf "phase %d closed: read %d source tuples, emitted %d"
      id read emitted
  | Reopt_poll
      { phase; est_cost; best_cost; best_plan; switch_cost;
        remaining_fraction; decision; _ } ->
    Format.fprintf ppf
      "re-opt poll (phase %d): cost-to-go %s, best %s via %s, switch cost \
       %s, %.0f%% of input remaining -> %s"
      phase (fnum est_cost) (fnum best_cost) best_plan (fnum switch_cost)
      (100.0 *. remaining_fraction)
      (match decision with Keep -> "keep current plan" | Switch -> "SWITCH")
  | Plan_switch { from_plan; to_plan; reason } ->
    Format.fprintf ppf "plan switch: %s => %s (%s)" from_plan to_plan reason
  | Comp_join_route { side; routed_to; routed } ->
    Format.fprintf ppf
      "comp-join router: side %s now feeds the %s join (%d tuples routed \
       before the flip)"
      side routed_to routed
  | Agg_window_resize { node; from_window; to_window; reduction } ->
    Format.fprintf ppf
      "pre-agg window resize: %s, %d -> %d (observed reduction %.2f)" node
      from_window to_window reduction
  | Retry { source; attempt; ok; next_attempt_s } ->
    if ok then
      Format.fprintf ppf "retry: %s reconnected on attempt %d" source attempt
    else
      Format.fprintf ppf
        "retry: %s attempt %d failed, next attempt at %s s" source attempt
        (fnum next_attempt_s)
  | Failover { source; ok } ->
    if ok then Format.fprintf ppf "failover: mirror took over for %s" source
    else
      Format.fprintf ppf
        "failover: %s lost with no mirror left, continuing partial" source
  | Checkpoint_written { seq; path; bytes } ->
    Format.fprintf ppf "checkpoint #%d written (%d bytes) -> %s" seq bytes
      path
  | Checkpoint_resumed { seq; path; phases } ->
    Format.fprintf ppf
      "resumed from checkpoint #%d (%d restored phase%s) <- %s" seq phases
      (if phases = 1 then "" else "s")
      path
  | Stitchup_begin { phases; combos } ->
    Format.fprintf ppf
      "stitch-up begin: %d phases, %d cross-phase combinations" phases
      combos
  | Stitchup_end { output; reused; recomputed } ->
    Format.fprintf ppf
      "stitch-up end: %d rows (%d registry tuples reused, %d recomputed)"
      output reused recomputed
  | Page_out { node } ->
    Format.fprintf ppf "page-out: %s" node
  | Node_profile { phase; node; self_us; tuples_in; tuples_out; _ } ->
    Format.fprintf ppf
      "node profile [%s] %s: self %s s, in %d, out %d" phase node
      (fnum (self_us /. 1e6))
      tuples_in tuples_out
  | Calibration { phase; point; node; est; actual; q_error; blame } ->
    Format.fprintf ppf
      "calibration [%s, %s] %s: est %s, actual %s, q-error %s%s" phase point
      node (fnum est) (fnum actual) (fnum q_error)
      (if blame then " <- blame" else "")
  | Worker_spawned { worker } ->
    Format.fprintf ppf "worker %d spawned" worker
  | Worker_died { worker; query; last_heartbeat_s } ->
    Format.fprintf ppf
      "worker %d died running %s (last heartbeat at %s s)" worker query
      (fnum last_heartbeat_s)
  | Worker_reclaimed { worker; query; attempt; resume_from } ->
    if resume_from = "" then
      Format.fprintf ppf
        "query %s reclaimed from worker %d (attempt %d, no checkpoint: \
         restarting fresh)"
        query worker attempt
    else
      Format.fprintf ppf
        "query %s reclaimed from worker %d (attempt %d, resuming <- %s)"
        query worker attempt resume_from
  | Poll_interval_changed { from_s; to_s; found } ->
    Format.fprintf ppf
      "dispatcher poll interval %s s -> %s s (%d ready)" (fnum from_s)
      (fnum to_s) found
  | Admission { query; accepted; queue_depth; reason } ->
    if accepted then
      Format.fprintf ppf "admission: %s accepted (queue depth %d)" query
        queue_depth
    else
      Format.fprintf ppf "admission: %s REJECTED (%s, queue depth %d)" query
        reason queue_depth
  | Deadline_exceeded { deadline_s; now_s; est_finish_s } ->
    Format.fprintf ppf
      "deadline exceeded: limit %s s, now %s s, estimated finish %s s"
      (fnum deadline_s) (fnum now_s) (fnum est_finish_s)
  | Budget_exhausted { in_use; ceiling } ->
    Format.fprintf ppf
      "memory budget exhausted: %d resident tuples over ceiling %d" in_use
      ceiling
  | Query_degraded { reason; phase; coverage } ->
    Format.fprintf ppf
      "query DEGRADED (%s) in phase %d: finishing with what arrived \
       (coverage %.2f)"
      reason phase coverage
  | Breaker_state_changed { source; from_state; to_state; failures } ->
    Format.fprintf ppf
      "circuit breaker: %s %s -> %s (%d failure%s in window)" source
      from_state to_state failures
      (if failures = 1 then "" else "s")
  | Query_attempt { query; attempt; worker; events } ->
    Format.fprintf ppf
      "query %s attempt %d on worker %d: %d re-stamped event%s" query
      attempt worker events
      (if events = 1 then "" else "s")

(* Rebuild a [Profile.t] from the Node_profile events a profiled run
   appends to its trace; emission preserved registration order, so the
   rendered tree is the run's own pre-order. *)
let profile_of_events evs =
  let p = Profile.create () in
  let any = ref false in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Node_profile
          { phase; node; depth; self_us; tuples_in; tuples_out; probes;
            builds; mem_hw } ->
        any := true;
        Profile.set_phase p phase;
        let sp = Profile.span p ~depth node in
        Profile.add_time sp self_us;
        Profile.add_in sp tuples_in;
        Profile.add_out sp tuples_out;
        Profile.add_probes sp probes;
        Profile.add_builds sp builds;
        Profile.note_mem sp mem_hw
      | _ -> ())
    evs;
  if !any then Some p else None

let explain ppf evs =
  match evs with
  | [] -> Format.fprintf ppf "(empty trace)@."
  | (first, _) :: _ ->
    let last = List.fold_left (fun _ (at, _) -> at) first evs in
    (* Profile/calibration events are end-of-run summaries; render them
       as sections below rather than as timeline lines. *)
    let summary_ev = function
      | Node_profile _ | Calibration _ -> true
      | _ -> false
    in
    (* Server traces mark each contiguous re-stamped block with a
       [Query_attempt] header; render the block's events as a per-query
       lane (prefixed with the query id) instead of anonymous flat
       lines.  Traces without markers are untouched. *)
    let lane = ref "" in
    let lane_left = ref 0 in
    List.iter
      (fun (at, ev) ->
        let prefix =
          if !lane_left > 0 then begin
            decr lane_left;
            !lane ^ "| "
          end
          else ""
        in
        if summary_ev ev then ()
        else
          Format.fprintf ppf "[%12.6f s] %s%a@." (at /. 1e6) prefix pp_event
            ev;
        (match ev with
         | Query_attempt { query; events; _ } ->
           lane := query;
           lane_left := events
         | _ -> ());
        match ev with
        | Reopt_poll { observed_sel; _ } when observed_sel <> [] ->
          let shown, rest =
            let rec split n = function
              | x :: tl when n > 0 ->
                let a, b = split (n - 1) tl in
                (x :: a, b)
              | l -> ([], l)
            in
            split 8 observed_sel
          in
          List.iter
            (fun (sg, v) ->
              Format.fprintf ppf "%16s evidence: sel %s = %.4f@." "" sg v)
            shown;
          if rest <> [] then
            Format.fprintf ppf "%16s evidence: (+%d more)@." ""
              (List.length rest)
        | _ -> ())
      evs;
    let count f = List.length (List.filter (fun (_, ev) -> f ev) evs) in
    let phases = count (function Phase_opened _ -> true | _ -> false) in
    let polls = count (function Reopt_poll _ -> true | _ -> false) in
    let switches = count (function Plan_switch _ -> true | _ -> false) in
    let routes = count (function Comp_join_route _ -> true | _ -> false) in
    let resizes =
      count (function Agg_window_resize _ -> true | _ -> false)
    in
    let retries = count (function Retry _ -> true | _ -> false) in
    let failovers = count (function Failover _ -> true | _ -> false) in
    let ckpts =
      count (function Checkpoint_written _ -> true | _ -> false)
    in
    let pageouts = count (function Page_out _ -> true | _ -> false) in
    (match profile_of_events evs with
     | None -> ()
     | Some p ->
       let blames =
         List.filter_map
           (function
             | _, Calibration { node; blame = true; _ } -> Some node
             | _ -> None)
           evs
       in
       let annot ~node =
         if List.mem node blames then Some "<- blame" else None
       in
       Format.fprintf ppf "-- per-node profile:@.";
       Profile.render ~annot ppf p);
    let has_calibration =
      List.exists (function _, Calibration _ -> true | _ -> false) evs
    in
    if has_calibration then begin
      Format.fprintf ppf "-- calibration (latest per node):@.";
      List.iter
        (fun (_, ev) ->
          match ev with
          | Calibration _ ->
            Format.fprintf ppf "   %a@." pp_event ev
          | _ -> ())
        evs
    end;
    Format.fprintf ppf
      "-- %d events spanning %s virtual seconds@.-- phases %d; polls %d; \
       switches %d; routing flips %d; window resizes %d; retries %d; \
       failovers %d; checkpoints %d; page-outs %d@."
      (List.length evs)
      (fnum ((last -. first) /. 1e6))
      phases polls switches routes resizes retries failovers ckpts pageouts;
    (* Server-level events only appear in [tukwila serve] traces; keep
       single-query replays byte-identical by printing the extra summary
       line only when they are present. *)
    let spawns = count (function Worker_spawned _ -> true | _ -> false) in
    let deaths = count (function Worker_died _ -> true | _ -> false) in
    let reclaims =
      count (function Worker_reclaimed _ -> true | _ -> false)
    in
    let interval_moves =
      count (function Poll_interval_changed _ -> true | _ -> false)
    in
    let sheds =
      count (function Admission { accepted = false; _ } -> true | _ -> false)
    in
    if spawns + deaths + reclaims + interval_moves + sheds > 0 then
      Format.fprintf ppf
        "-- server: workers spawned %d; deaths %d; reclaims %d; \
         poll-interval moves %d; load-shed %d@."
        spawns deaths reclaims interval_moves sheds;
    (* Lane markers only appear in [tukwila serve] traces (one per
       re-stamped attempt block); single-query replays stay
       byte-identical. *)
    let lanes = count (function Query_attempt _ -> true | _ -> false) in
    if lanes > 0 then
      Format.fprintf ppf "-- lanes: %d query-attempt block%s@." lanes
        (if lanes = 1 then "" else "s");
    (* Governance events likewise only appear when deadlines, budgets or
       breakers are configured; ungoverned replays stay byte-identical. *)
    let deadline_hits =
      count (function Deadline_exceeded _ -> true | _ -> false)
    in
    let budget_hits =
      count (function Budget_exhausted _ -> true | _ -> false)
    in
    let degradations =
      count (function Query_degraded _ -> true | _ -> false)
    in
    let breaker_moves =
      count (function Breaker_state_changed _ -> true | _ -> false)
    in
    let breaker_trips =
      count (function
        | Breaker_state_changed { to_state = "open"; _ } -> true
        | _ -> false)
    in
    if deadline_hits + budget_hits + degradations + breaker_moves > 0 then
      Format.fprintf ppf
        "-- governance: deadline hits %d; budget hits %d; degradations %d; \
         breaker transitions %d (trips %d)@."
        deadline_hits budget_hits degradations breaker_moves breaker_trips
