open Adp_exec
open Adp_optimizer
module Diagnostic = Adp_analysis.Diagnostic

(** Consistent snapshots of a running adaptive execution, and the
    versioned on-disk checkpoint format.

    A checkpoint captures everything needed to resume the query as a
    forced phase switch (ARCHITECTURE.md "Recovery layer"): the phase
    ledger (every closed phase's spec, captured runtime state, and
    per-source region end positions, plus the in-flight phase at capture
    time), the per-source stream positions, the virtual clock, the
    engine's progress counters, and the observed-statistics dump that
    lets the recovered run re-optimize with everything the interrupted
    one had learned.

    On disk a checkpoint is one {!Adp_storage.Snapshot} container file:
    magic, format version, and named segments ([manifest], [clock],
    [stats], one [phase-<id>] per recorded phase), each protected by a
    CRC-32 and written atomically (temp + rename).  {!load} never throws
    on bad input — every structural problem maps to a structured
    {!Diagnostic.t} with a stable [ckpt-*] code. *)

(** The container version {!save} writes and {!load} accepts.  4: each
    node's outputs are stored newest first (a count, then the rows), and
    each segment header carries its CRC and length at fixed width
    (see {!Adp_storage.Snapshot.write_file}).  Version 3 already carried
    only the columns the query still reads
    ({!Adp_optimizer.Logical.keep}).  The manifest keeps a reserved
    integer slot after [tuples_read], written as 0 and skipped on read. *)
val format_version : int

type phase_record = {
  pr_id : int;
  pr_spec : Plan.spec;
  pr_state : Plan.state;
  pr_emitted : int;  (** root tuples the phase emitted *)
  pr_read : int;  (** source tuples the phase consumed *)
  pr_ends : (string * int) list;
      (** cumulative per-source end positions of the phase's region *)
}

type t = {
  seq : int;  (** checkpoint sequence number within the run *)
  fingerprint : string;  (** {!fingerprint} of the query being executed *)
  clock : Clock.state;
  tuples_read : int;
  retries : int;
  failovers : int;
  sources_failed : int;
  positions : (string * int) list;  (** per-source positions at capture *)
  stats : Adp_stats.Selectivity.dump;
  completed : phase_record list;  (** closed phases, oldest first *)
  current : phase_record option;
      (** the in-flight phase; [None] when captured at a phase boundary
          or after source exhaustion *)
}

(** Digest identifying the logical query; a checkpoint resumes only
    against the query that wrote it. *)
val fingerprint : Logical.query -> string

(** The checkpoint's phase ledger, oldest first — each phase's id and
    region end positions, the in-flight phase last.  This is what
    {!Adp_analysis.Analyzer.check_checkpoint_regions} validates at
    recovery time. *)
val ledger : t -> (int * (string * int) list) list

(** {2 Files} *)

(** [save ~dir t] writes [t] atomically as [dir/ckpt-<seq>.adpckpt]
    (creating [dir] if needed) and returns the path written and its size
    in bytes. *)
val save : dir:string -> t -> string * int

(** Highest-sequence checkpoint file in [dir], if any. *)
val latest : dir:string -> string option

(** Load and verify a checkpoint file.  All failures are diagnostics,
    never exceptions: ["ckpt-bad-magic"], ["ckpt-version"],
    ["ckpt-truncated"], ["ckpt-crc-mismatch"], ["ckpt-io-error"],
    ["ckpt-malformed"] (a segment decodes to garbage),
    ["ckpt-segment-missing"]. *)
val load : string -> (t, Diagnostic.t list) result

(** The virtual clock a checkpoint file recorded.  Verifies every
    segment's CRC like {!load} but decodes only the manifest and the
    clock, not the phases' tuples; [None] on any failure {!load} would
    report. *)
val load_clock : string -> Clock.state option

(** {2 Policies}

    When the corrective driver writes checkpoints: always whenever a
    phase closes, and on the triggers below. *)

type policy = {
  dir : string;  (** where checkpoint files go *)
  every_tuples : int option;  (** every N consumed source tuples *)
  on_page_out : bool;
      (** when memory pressure pages state structures out — paged-out
          state is the state most expensive to lose *)
}

(** [policy ~dir ()] — tuple-count and page-out triggers off unless
    given. *)
val policy :
  ?every_tuples:int ->
  ?on_page_out:bool ->
  dir:string ->
  unit ->
  policy
