type outcome = Exhausted | Switched | Stopped

type event = Deliver of float | Attempt of float

let time_of = function Deliver t | Attempt t -> t

let run ctx ~sources ~consume ?poll ?(retry = Retry.default_policy) ?deadline
    ?breakers () =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let ctrls = Array.init n (fun i -> Retry.create ~salt:i retry) in
  let cursor = ref 0 in
  let next_poll =
    ref (match poll with Some (iv, _) -> Ctx.now ctx +. iv | None -> infinity)
  in
  let breaker i =
    match breakers with
    | Some bks when Array.length bks = n -> Some bks.(i)
    | Some _ | None -> None
  in
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
  (* The engine-observable next event on a source.  An arrival within the
     retry deadline is a delivery; silence past the deadline (a stall, a
     long gap, or a dropped link) is a timeout, which surfaces as a
     reconnect attempt — at the deadline, or at the scheduled post-backoff
     time while attempts are in flight.  An open breaker stops asking: its
     source's next attempt is held back to the scheduled probe time. *)
  let event i =
    let s = srcs.(i) in
    if Source.finished s then None
    else begin
      let now = Ctx.now ctx in
      let attempt t =
        match breaker i with
        | Some b when Breaker.state b = Breaker.Open ->
          Attempt (max t (Breaker.probe_at b))
        | Some _ | None -> Attempt t
      in
      match Retry.pending_attempt ctrls.(i) with
      | Some ta -> Some (attempt (max ta now))
      | None ->
        let dl = Retry.deadline ctrls.(i) in
        (match Source.peek_arrival s with
         | Some a when a <= max dl now -> Some (Deliver a)
         | Some _ | None -> Some (attempt (max dl now)))
    end
  in
  let pick () =
    (* Earliest event among live sources; ties broken round-robin starting
       after the last pick.  Events at infinite time (a permanently silent
       source under a no-timeout policy) can never fire: such sources are
       left behind rather than hanging the loop. *)
    let best = ref None in
    for off = 0 to n - 1 do
      let i = (!cursor + off) mod n in
      match event i with
      | None -> ()
      | Some ev ->
        let t = time_of ev in
        if Float.is_finite t then
          (match !best with
           | Some (_, bev) when time_of bev <= t -> ()
           | Some _ | None -> best := Some (i, ev))
    done;
    !best
  in
  let reopt_poll cb ~continue =
    Ctx.charge_span ctx (Ctx.span ctx "(re-optimizer)") ctx.Ctx.costs.reopt;
    (match poll with
     | Some (iv, _) -> next_poll := Ctx.now ctx +. iv
     | None -> ());
    match cb () with
    | `Continue -> continue ()
    | `Switch -> Switched
    | `Stop -> Stopped
  in
  let rec loop () =
    match pick () with
    | None -> Exhausted
    | Some (i, ev) -> (
      match deadline with
      | Some dl when time_of ev > dl && Ctx.now ctx < dl -> (
        (* No source event due before the query deadline: hand control to
           the governance poll at the deadline instead of sleeping past
           it.  The poll normally answers [`Stop] (degrade); if it lets
           the run continue, the event proceeds and this arm — guarded on
           [now < dl] — never fires again. *)
        Clock.wait_until ctx.Ctx.clock dl;
        Ctx.wall_bucket ctx "(driver wait)";
        match poll with
        | Some (_, cb) -> reopt_poll cb ~continue:(fun () -> handle i ev)
        | None -> Stopped)
      | Some _ | None -> handle i ev)
  and handle i ev =
    match ev with
    | Deliver arrival ->
      cursor := (i + 1) mod n;
      Clock.wait_until ctx.Ctx.clock arrival;
      Ctx.wall_bucket ctx "(driver wait)";
      (match Source.next srcs.(i) with
       | None -> ()
       | Some (tuple, _) ->
         Adp_obs.Metrics.incr ctx.Ctx.tuples_read;
         let now = Ctx.now ctx in
         Retry.note_progress ctrls.(i) ~now;
         breaker_success i ~now;
         consume srcs.(i) tuple);
      (match poll with
       | Some (_, cb) when Ctx.now ctx >= !next_poll ->
         reopt_poll cb ~continue:loop
       | Some _ | None -> loop ())
    | Attempt at ->
      cursor := (i + 1) mod n;
      (* Timeout detection and backoff are idle waits on an unresponsive
         source; the attempt itself costs CPU. *)
      Clock.wait_retry ctx.Ctx.clock at;
      Ctx.wall_bucket ctx "(driver wait)";
      Ctx.charge_span ctx (Ctx.span ctx "(retry)") ctx.Ctx.costs.reconnect;
      let now = Ctx.now ctx in
      if Retry.exhausted ctrls.(i) then begin
        (* Retry budget spent: the connection is declared permanently
           dead.  Fail over to the next mirror, or give the source up and
           let the run complete with partial results. *)
        let ok = Source.failover srcs.(i) ~at:now in
        (if ok then begin
           Adp_obs.Metrics.incr ctx.Ctx.failovers;
           Retry.note_progress ctrls.(i) ~now;
           breaker_success i ~now
         end
         else Adp_obs.Metrics.incr ctx.Ctx.sources_failed);
        if Ctx.traced ctx then
          Ctx.emit ctx
            (Adp_obs.Trace.Failover { source = Source.name srcs.(i); ok });
        (* A permanent source failure changes the best remaining plan:
           trigger the re-optimizer immediately instead of waiting for
           the next scheduled poll. *)
        match poll with
        | Some (_, cb) -> reopt_poll cb ~continue:loop
        | None -> loop ()
      end
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
          if tripped && Source.mirrors_remaining srcs.(i) > 0 then begin
            (* The breaker gave up on this connection and a mirror is
               available: switch over now rather than burning the rest of
               the retry budget against a tripping source. *)
            let fo = Source.failover srcs.(i) ~at:now in
            (if fo then begin
               Adp_obs.Metrics.incr ctx.Ctx.failovers;
               Retry.note_progress ctrls.(i) ~now;
               breaker_success i ~now
             end);
            if Ctx.traced ctx then
              Ctx.emit ctx
                (Adp_obs.Trace.Failover
                   { source = Source.name srcs.(i); ok = fo });
            (* Breaker-driven failover changes the source landscape:
               poll immediately, as with retry-exhaustion failover. *)
            match poll with
            | Some (_, cb) -> reopt_poll cb ~continue:loop
            | None -> loop ()
          end
          else loop ()
        end
      end
  in
  loop ()
