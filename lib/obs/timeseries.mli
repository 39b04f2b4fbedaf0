(** Telemetry over time: ring-buffer metric history, the SLO monitor,
    and the server-side journal behind [tukwila top].

    A recorder samples every registered cell of a {!Metrics} registry
    (counters and gauges) into ring-buffer series of 512 points.  The server calls {!sample} once
    per dispatcher poll with the {e virtual} clock as the time axis — an
    optional wall shadow rides along when the caller supplies one from
    the sanctioned {!Wallclock} module.  Sampling only reads; it never
    touches the clock or the event heap, so a telemetered serve stays
    bit-identical to a bare one, and repeated serves of the same script
    export byte-identical JSONL (wall shadow off).

    Alongside the metric history the recorder keeps per-query span
    transitions, warm-start provenance edges, and the {!Slo} monitor's
    violation/recovery ledger; {!to_jsonl} exports everything as one
    line-oriented document, {!read} loads it back, and {!top} renders
    the text dashboard. *)

type t

(** Each series ring retains its last 512 points; aggregates cover the
    trailing 32 samples; [slos] are evaluated at every {!sample}. *)
val create : ?slos:Slo.objective list -> unit -> t

(** Samples taken so far. *)
val samples : t -> int

(** Live series count (tests). *)
val series_count : t -> int

val objectives : t -> Slo.objective list

(** Record one sample at virtual time [now_s] (seconds): snapshot every
    cell of [metrics] into its series, then evaluate the SLO monitor
    over the updated windows.  Returns the SLO transitions this sample
    caused (also appended to the exported ledger).  [wall_s] attaches a
    wall-clock shadow to the sample — callers must source it from
    {!Wallclock} and leave it off when byte-identical exports matter. *)
val sample :
  t -> now_s:float -> ?wall_s:float -> Metrics.t -> Slo.transition list

(** Windowed aggregate of one series ([None] when absent or empty). *)
val aggregate :
  t -> ?labels:(string * string) list -> metric:string -> Slo.agg ->
  float option

(** Aggregates of every series named [metric], one per label-set. *)
val values : t -> metric:string -> Slo.agg -> float list

(** {2 Journal} *)

(** Record a query lifecycle transition ([state] is one of
    ["submitted"], ["started"], ["done"], ["failed"], ["cancelled"],
    ["rejected"], ["reclaimed"]). *)
val span :
  t ->
  at_s:float ->
  query:string ->
  state:string ->
  ?worker:int ->
  ?attempt:int ->
  unit ->
  unit

(** Record which inherited selectivity signatures fed [query]'s
    warm-started plan. *)
val provenance :
  t -> at_s:float -> query:string -> signatures:string list -> unit

(** {2 Export} *)

(** One JSONL document: a [meta] header, one [sample] line per poll,
    [span]/[prov]/[slo] journal lines in emission order, then one
    [series] line per ring (sorted by name, then labels) carrying the
    retained points.  Deterministic byte-for-byte given the same
    recording. *)
val to_jsonl : t -> string

(** {!to_jsonl} through atomic temp + rename. *)
val write : t -> path:string -> unit

(** {2 Loading and rendering} *)

type span = {
  sp_t : float;
  sp_query : string;
  sp_state : string;
  sp_worker : int;  (** [-1] when not applicable *)
  sp_attempt : int;  (** [0] when not applicable *)
}

type prov = { pv_t : float; pv_query : string; pv_signatures : string list }

type slo_rec = {
  sl_t : float;
  sl_slo : string;
  sl_metric : string;
  sl_agg : string;
  sl_op : string;
  sl_value : float;
  sl_bound : float;
  sl_violated : bool;
}

type dseries = {
  ds_name : string;
  ds_labels : (string * string) list;
  ds_kind : string;  (** ["counter"] or ["gauge"] *)
  ds_total : int;  (** points ever recorded (>= retained) *)
  ds_points : (float * float) list;  (** retained, in time order *)
}

type doc = {
  d_capacity : int;
  d_window : int;
  d_slos : string list;  (** declared objectives, {!Slo.to_string} form *)
  d_samples : (float * float option) list;  (** (virtual, wall shadow) *)
  d_spans : span list;
  d_provs : prov list;
  d_slo_log : slo_rec list;
  d_series : dseries list;
}

(** Parse an exported telemetry JSONL file.  [Error] carries the first
    offending line as ["path:N: reason"]. *)
val read : string -> (doc, string) result

(** Parse the text of {!to_jsonl}; errors name the source ["telemetry"]. *)
val of_jsonl : string -> (doc, string) result

(** [sparkline width points] maps the last [width] values onto the
    ASCII intensity ramp [" .:-=+*#%@"] (scaled to the rendered min/max;
    [""] when empty).  Shared by {!top} and [tukwila bench-history]. *)
val sparkline : int -> (float * float) list -> string

(** Render the [tukwila top] dashboard: header, per-query span lanes on
    the server clock, sparkline series with window aggregates, SLO
    status with the transition ledger, and warm-start provenance. *)
val top : Format.formatter -> doc -> unit
