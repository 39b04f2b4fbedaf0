type outcome = Exhausted | Switched | Stopped

(* [Stdlib.max] on floats, without the polymorphic compare. *)
let fmax (a : float) b = if a >= b then a else b

let run ctx ~sources ~consume ?poll ?(retry = Retry.default_policy) ?deadline
    ?breakers () =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let ctrls = Array.init n (fun i -> Retry.create ~salt:i retry) in
  let cursor = ref 0 in
  let next_poll =
    ref (match poll with Some (iv, _) -> Ctx.now ctx +. iv | None -> infinity)
  in
  let bks =
    match breakers with
    | Some bks when Array.length bks = n -> Array.map Option.some bks
    | Some _ | None -> Array.make n None
  in
  let breaker i = bks.(i) in
  let emit_breaker_change i b ~from_state ~now =
    Adp_obs.Metrics.incr ctx.Ctx.breaker_transitions;
    (match Breaker.state b with
     | Breaker.Open -> Adp_obs.Metrics.incr ctx.Ctx.breaker_trips
     | Breaker.Closed | Breaker.Half_open -> ());
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Adp_obs.Trace.Breaker_state_changed
           { source = Source.name srcs.(i);
             from_state = Breaker.state_name from_state;
             to_state = Breaker.state_name (Breaker.state b);
             failures = Breaker.failure_count b ~now })
  in
  let breaker_success i ~now =
    match breaker i with
    | None -> ()
    | Some b ->
      let from_state = Breaker.state b in
      if Breaker.record_success b ~now then
        emit_breaker_change i b ~from_state ~now
  in
  (* Returns [true] when this failure tripped the breaker open. *)
  let breaker_failure i ~now =
    match breaker i with
    | None -> false
    | Some b ->
      let from_state = Breaker.state b in
      if Breaker.record_failure b ~now then begin
        emit_breaker_change i b ~from_state ~now;
        Breaker.state b = Breaker.Open
      end
      else false
  in
  (* Each source's next event, rewritten by [event] at every pick: its
     virtual time, and whether it is a delivery or a reconnect attempt.
     Flat arrays keep picking a tuple allocation-free, and so does keeping
     the picked delivery's arrival boxed as the source returned it.

     Fault-free fast path: an in-time delivery (the source is ready and
     its next arrival is within the retry deadline) depends only on that
     source's own state, which nothing but taking from it changes, so
     [cached] keeps it until then.  A poll callback may change any
     source, so each one drops every cached event.  Every other event
     (attempts, and late arrivals, which compare against the clock) is
     recomputed at every pick.  A failover changes only the source whose
     attempt led to it, whose event is therefore not cached. *)
  let ev_time = Array.make n 0.0 and ev_deliver = Array.make n false in
  let cached = Array.make n false in
  let deliver_at = ref 0.0 in
  let set_attempt i t =
    ev_deliver.(i) <- false;
    ev_time.(i) <-
      (match breaker i with
       | Some b when Breaker.state b = Breaker.Open -> fmax t (Breaker.probe_at b)
       | Some _ | None -> t)
  in
  (* The engine-observable next event on a source; [false] when it is
     finished.  An arrival within the retry deadline is a delivery;
     silence past the deadline (a stall, a long gap, or a dropped link) is
     a timeout, which surfaces as a reconnect attempt — at the deadline,
     or at the scheduled post-backoff time while attempts are in flight.
     An open breaker stops asking: its source's next attempt is held back
     to the scheduled probe time.  The clock is read only when the arrival
     misses the deadline: [a <= max dl now] is [a <= dl || a <= now]. *)
  let event i =
    cached.(i)
    ||
    let s = srcs.(i) in
    if Source.finished s then false
    else begin
      let c = ctrls.(i) in
      (match Retry.pending_attempt c with
       | Some ta -> set_attempt i (fmax ta (Ctx.now ctx))
       | None ->
         let in_time = Source.ready s && Retry.in_time c (Source.arrival s) in
         if in_time || (Source.ready s && Source.arrival s <= Ctx.now ctx)
         then begin
           ev_deliver.(i) <- true;
           ev_time.(i) <- Source.arrival s;
           cached.(i) <- in_time
         end
         else set_attempt i (fmax (Retry.deadline c) (Ctx.now ctx)));
      true
    end
  in
  let pick () =
    (* Earliest event among live sources, or -1; ties broken round-robin
       starting after the last pick.  Events at infinite time (a
       permanently silent source under a no-timeout policy) can never
       fire: such sources are left behind rather than hanging the loop. *)
    let best = ref (-1) in
    for off = 0 to n - 1 do
      let i = (!cursor + off) mod n in
      if event i then begin
        let t = ev_time.(i) in
        if Float.is_finite t && (!best < 0 || ev_time.(!best) > t) then
          best := i
      end
    done;
    if !best >= 0 && ev_deliver.(!best) then
      deliver_at := Source.arrival srcs.(!best);
    !best
  in
  let reopt_poll cb ~continue =
    Ctx.charge_span ctx (Ctx.span ctx "(re-optimizer)") ctx.Ctx.costs.reopt;
    (match poll with
     | Some (iv, _) -> next_poll := Ctx.now ctx +. iv
     | None -> ());
    let answer = cb () in
    Array.fill cached 0 n false;
    match answer with
    | `Continue -> continue ()
    | `Switch -> Switched
    | `Stop -> Stopped
  in
  let rec loop () =
    let i = pick () in
    if i < 0 then Exhausted
    else
      match deadline with
      | Some dl when ev_time.(i) > dl && Ctx.now ctx < dl -> (
        (* No source event due before the query deadline: hand control to
           the governance poll at the deadline instead of sleeping past
           it.  The poll normally answers [`Stop] (degrade); if it lets
           the run continue, the event proceeds and this arm — guarded on
           [now < dl] — never fires again. *)
        Clock.wait_until ctx.Ctx.clock dl;
        Ctx.wall_bucket ctx "(driver wait)";
        match poll with
        | Some (_, cb) -> reopt_poll cb ~continue:(fun () -> handle i)
        | None -> Stopped)
      | Some _ | None -> handle i
  and handle i =
    if ev_deliver.(i) then begin
      cached.(i) <- false;
      cursor := (i + 1) mod n;
      Clock.wait_until ctx.Ctx.clock !deliver_at;
      Ctx.wall_bucket ctx "(driver wait)";
      let s = srcs.(i) in
      if Source.ready s then begin
        let tuple = Source.take s in
        Adp_obs.Metrics.incr ctx.Ctx.tuples_read;
        let now = Ctx.now ctx in
        Retry.note_progress ctrls.(i) ~now;
        (match breaker i with
         | Some _ -> breaker_success i ~now
         | None -> ());
        consume s tuple
      end;
      match poll with
      | Some (_, cb) when Ctx.now ctx >= !next_poll ->
        reopt_poll cb ~continue:loop
      | Some _ | None -> loop ()
    end
    else begin
      let at = ev_time.(i) in
      cursor := (i + 1) mod n;
      (* Timeout detection and backoff are idle waits on an unresponsive
         source; the attempt itself costs CPU. *)
      Clock.wait_retry ctx.Ctx.clock at;
      Ctx.wall_bucket ctx "(driver wait)";
      Ctx.charge_span ctx (Ctx.span ctx "(retry)") ctx.Ctx.costs.reconnect;
      let now = Ctx.now ctx in
      if Retry.exhausted ctrls.(i) then
        (* Retry budget spent: the connection is declared permanently
           dead. *)
        fail_over i ~now
      else begin
        Adp_obs.Metrics.incr ctx.Ctx.retries;
        let attempt = Retry.attempts ctrls.(i) + 1 in
        (* An open breaker held this attempt back to its probe time;
           admit it as the half-open probe. *)
        (match breaker i with
         | Some b when Breaker.state b = Breaker.Open ->
           let from_state = Breaker.state b in
           if Breaker.allow b ~now then begin
             emit_breaker_change i b ~from_state ~now;
             Breaker.note_probe b
           end
         | Some _ | None -> ());
        let ok = Source.try_reconnect srcs.(i) ~at:now in
        if ok then Retry.record_success ctrls.(i) ~now
        else Retry.record_failure ctrls.(i) ~now;
        if Ctx.traced ctx then
          Ctx.emit ctx
            (Adp_obs.Trace.Retry
               { source = Source.name srcs.(i); attempt; ok;
                 next_attempt_s =
                   (match Retry.pending_attempt ctrls.(i) with
                    | Some t -> t /. 1e6
                    | None -> 0.0) });
        if ok then begin
          breaker_success i ~now;
          loop ()
        end
        else begin
          let tripped = breaker_failure i ~now in
          if tripped && Source.mirrors_remaining srcs.(i) > 0 then
            (* The breaker gave up on this connection and a mirror is
               available: switch over now rather than burning the rest of
               the retry budget against a tripping source. *)
            fail_over i ~now
          else loop ()
        end
      end
    end
  (* Fail over to the next mirror, or give the source up and let the run
     complete with partial results.  Either way the source landscape
     changed, which changes the best remaining plan: trigger the
     re-optimizer immediately instead of waiting for the next scheduled
     poll. *)
  and fail_over i ~now =
    let ok = Source.failover srcs.(i) ~at:now in
    if ok then begin
      Adp_obs.Metrics.incr ctx.Ctx.failovers;
      Retry.note_progress ctrls.(i) ~now;
      breaker_success i ~now
    end
    else Adp_obs.Metrics.incr ctx.Ctx.sources_failed;
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Adp_obs.Trace.Failover { source = Source.name srcs.(i); ok });
    match poll with
    | Some (_, cb) -> reopt_poll cb ~continue:loop
    | None -> loop ()
  in
  loop ()
