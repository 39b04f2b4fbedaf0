(** Structured execution traces: every adaptive decision the engine makes
    — re-optimizer polls, plan switches, complementary-join routing flips,
    pre-aggregation window resizes, retries, failovers, checkpoints,
    page-outs and the stitch-up — as typed events stamped with the
    virtual clock.

    Emission is explicitly zero-cost when disabled: the engine guards
    every hook with {!enabled}, so against the {!null} sink neither the
    event payload nor its timestamp is ever constructed, and emitting
    never touches the clock — a traced run and an untraced run are
    virtual-time identical by construction.

    File sinks buffer in memory and are flushed by {!close} through
    {!Adp_storage.Snapshot.write_text} (atomic temp + rename), in one of
    two formats: JSONL (one event object per line, replayable with
    [tukwila explain]) or the Chrome [trace_event] JSON understood by
    Perfetto and about://tracing. *)

(** Did the re-optimizer keep the running plan or switch? *)
type decision = Keep | Switch

type event =
  | Phase_opened of { id : int; plan : string }
  | Phase_closed of { id : int; read : int; emitted : int }
      (** [read]/[emitted]: source tuples consumed / result tuples
          produced by the closing phase *)
  | Reopt_poll of {
      phase : int;
      est_cost : float;  (** cost-to-go of the running plan *)
      best_cost : float;  (** estimated cost of the re-optimized plan *)
      best_plan : string;
      switch_cost : float;  (** estimated stitch-up price of switching *)
      remaining_fraction : float;
      observed_sel : (string * float) list;
          (** the monitor's selectivity evidence, by signature *)
      decision : decision;
    }
  | Plan_switch of { from_plan : string; to_plan : string; reason : string }
  | Comp_join_route of { side : string; routed_to : string; routed : int }
      (** the router's target for side [side] ("L"/"R") changed to
          [routed_to] ("merge"/"hash"); [routed] tuples had been routed
          on that side before the flip *)
  | Agg_window_resize of {
      node : string;
      from_window : int;
      to_window : int;
      reduction : float;  (** observed window reduction factor *)
    }
  | Retry of {
      source : string;
      attempt : int;
      ok : bool;  (** did the reconnect succeed? *)
      next_attempt_s : float;
          (** virtual time of the next scheduled attempt (0 when none) *)
    }
  | Failover of { source : string; ok : bool }
      (** [ok]: a mirror took over; otherwise the source is lost *)
  | Checkpoint_written of { seq : int; path : string; bytes : int }
  | Checkpoint_resumed of { seq : int; path : string; phases : int }
      (** [phases]: phases restored from the checkpoint *)
  | Stitchup_begin of { phases : int; combos : int }
  | Stitchup_end of { output : int; reused : int; recomputed : int }
  | Page_out of { node : string }
  | Node_profile of {
      phase : string;
      node : string;
      depth : int;  (** pre-order depth in the phase's plan tree *)
      self_us : float;  (** virtual microseconds attributed to the node *)
      tuples_in : int;
      tuples_out : int;
      probes : int;
      builds : int;
      mem_hw : int;  (** high-water resident tuple count *)
    }
      (** End-of-run profiler summary, one per span (see
          {!Adp_obs.Profile}); emitted only when a run is both traced and
          profiled. *)
  | Calibration of {
      phase : string;
      point : string;  (** "poll" | "phase-close" | "stitch-up" *)
      node : string;
      est : float;  (** cardinality frozen when the phase opened *)
      actual : float;  (** refreshed estimate under observed stats *)
      q_error : float;
      blame : bool;  (** the worst-misestimated node of the run *)
    }
      (** End-of-run calibration summary: the latest est-vs-actual record
          per node (see {!Adp_obs.Calibrate}). *)
  | Worker_spawned of { worker : int }
      (** server: a pool worker came up (initial spawn or a replacement
          after a death) *)
  | Worker_died of {
      worker : int;
      query : string;
      last_heartbeat_s : float;  (** server virtual time of the last beat *)
    }
      (** server: the supervisor declared a worker dead after missed
          heartbeats; [query] is what it was running *)
  | Worker_reclaimed of {
      worker : int;
      query : string;
      attempt : int;  (** 1-based attempt number being abandoned *)
      resume_from : string;
          (** checkpoint dir the retry resumes from ("" when the worker
              died before writing any checkpoint: the retry restarts) *)
    }
  | Poll_interval_changed of { from_s : float; to_s : float; found : int }
      (** server: the adaptive dispatcher moved its poll interval;
          [found] is the ready-job count the triggering poll observed *)
  | Admission of {
      query : string;
      accepted : bool;
      queue_depth : int;  (** waiting jobs after the decision *)
      reason : string;  (** "" when accepted; why when shed *)
    }
  | Deadline_exceeded of {
      deadline_s : float;  (** the query's deadline, virtual seconds *)
      now_s : float;
      est_finish_s : float;
          (** [now + cost-to-go] when the poll concluded the deadline
              cannot be met (equals [now_s] when already past it) *)
    }
  | Budget_exhausted of {
      in_use : int;  (** resident tuples across builds + pre-agg windows *)
      ceiling : int;  (** the hard memory ceiling that was crossed *)
    }
  | Query_degraded of {
      reason : string;  (** "deadline" | "memory" *)
      phase : int;  (** phase in which degradation was decided *)
      coverage : float;  (** fraction of source input consumed so far *)
    }
      (** The governance layer decided to finish early: the current phase
          closes, stitch-up runs over what arrived, and the report carries
          [degraded_reason] instead of the run timing out with nothing. *)
  | Breaker_state_changed of {
      source : string;
      from_state : string;  (** "closed" | "open" | "half-open" *)
      to_state : string;
      failures : int;  (** failures in the sliding window at transition *)
    }
  | Query_attempt of {
      query : string;
      attempt : int;  (** 1-based attempt number *)
      worker : int;
      events : int;
          (** length of the contiguous re-stamped inner-event block that
              follows this marker in the server trace — what lets
              [tukwila explain] group a serve replay into per-query
              lanes *)
    }

(** Events are stamped with the virtual clock (µs). *)
type stamped = float * event

type format = Jsonl | Chrome

type t

(** The disabled sink: {!enabled} is [false], {!emit} is a no-op. *)
val null : t

(** In-memory sink (tests, [explain] of a live run). *)
val memory : unit -> t

(** File sink; nothing is written until {!close}. *)
val file : format:format -> string -> t

val enabled : t -> bool

(** [emit t ~at ev] records [ev] at virtual time [at] (µs).  Call sites
    must guard with {!enabled} so payload construction is skipped against
    {!null}. *)
val emit : t -> at:float -> event -> unit

(** Events recorded so far, in emission order. *)
val events : t -> stamped list

(** Flush a file sink to disk (atomic temp + rename).  No-op for [null]
    and memory sinks.  Idempotent. *)
val close : t -> unit

(** {2 Serialization} *)

val event_name : event -> string
val to_json : stamped -> Json.t
val of_json : Json.t -> (stamped, string) result
val to_jsonl : stamped list -> string
val to_chrome : stamped list -> string

(** Parse a JSONL trace file.  [Error] carries the first offending line
    number and reason. *)
val read_jsonl : string -> (stamped list, string) result

(** {2 Replay} *)

val pp_event : Format.formatter -> event -> unit

(** Render a recorded trace as a human-readable timeline: one line per
    event at its virtual time, the re-optimizer's selectivity evidence
    under each poll, and a closing summary of decision counts. *)
val explain : Format.formatter -> stamped list -> unit
