module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Profile = Adp_obs.Profile
module Wallclock = Adp_obs.Wallclock

type t = {
  clock : Clock.t;
  costs : Cost_model.t;
  trace : Trace.t;
  profile : Profile.t option;
  wall : Wallclock.t option;
  tuples_read : Metrics.counter;
  retries : Metrics.counter;
  failovers : Metrics.counter;
  sources_failed : Metrics.counter;
  checkpoints : Metrics.counter;
  checkpoint_bytes : Metrics.counter;
  paged_out : Metrics.counter;
  breaker_trips : Metrics.counter;
  degraded : Metrics.counter;
}

let create ?(costs = Cost_model.default) ?(trace = Trace.null) ?metrics
    ?profile ?wall () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  (* The wall recorder stamps into profile spans, so a walled run always
     profiles: into the profile given, else the recorder's private one. *)
  let profile =
    match wall with
    | None -> profile
    | Some w ->
      Option.iter (Wallclock.attach w) profile;
      Some (Wallclock.profile w)
  in
  let c name help = Metrics.counter metrics ~help name in
  { clock = Clock.create (); costs; trace; profile; wall;
    tuples_read = c "adp_tuples_read_total" "source tuples consumed";
    retries = c "adp_retries_total" "source reconnect attempts issued";
    failovers = c "adp_failovers_total" "mirror failovers performed";
    sources_failed =
      c "adp_sources_failed_total"
        "sources permanently lost (all mirrors exhausted)";
    checkpoints = c "adp_checkpoints_total" "checkpoint files written";
    checkpoint_bytes =
      c "adp_checkpoint_bytes_total" "bytes of checkpoint data written";
    paged_out =
      c "adp_paged_out_total"
        "state structures paged out by memory pressure";
    breaker_trips =
      c "adp_breaker_trips_total" "circuit breakers tripped open";
    degraded =
      c "adp_degraded_total"
        "queries deliberately degraded by deadline or memory governance" }

(* The wall recorder is a read-only sidecar: it stamps hardware time at
   the same choke points that charge the virtual clock, and nothing it
   computes flows back — so wall capture preserves the zero-perturbation
   contract the same way tracing and profiling do. *)
let charge t c =
  Clock.charge t.clock c;
  match t.wall with None -> () | Some w -> Wallclock.attribute w None

let now t = Clock.now t.clock
let traced t = Trace.enabled t.trace

let emit t ev = if traced t then Trace.emit t.trace ~at:(Clock.now t.clock) ev

let profiled t = Option.is_some t.profile

(* [charge_span t sp c] is [charge t c] that also attributes the same
   amount to span [sp] — the attribution adds the float it was handed,
   it never reads the clock, so a profiled run's virtual time is
   bit-identical to an unprofiled one's.  The wall shadow stamps
   hardware elapsed time against the same span. *)
let charge_span t sp c =
  Clock.charge t.clock c;
  (match t.wall with None -> () | Some w -> Wallclock.attribute w sp);
  match sp with None -> () | Some sp -> Profile.add_time sp c

(* Bucket the wall time of a blocking wait (source arrival, retry
   backoff) or of checkpoint I/O so it never pollutes the next
   operator's span. *)
let wall_bucket t name =
  match t.wall with None -> () | Some w -> Wallclock.note_bucket w name

let span t ?depth node =
  match t.profile with
  | None -> None
  | Some p -> Some (Profile.span p ?depth node)

let set_phase t phase =
  match t.profile with
  | None -> ()
  | Some p -> Profile.set_phase p phase

