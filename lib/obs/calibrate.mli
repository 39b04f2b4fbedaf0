(** Calibration ledger: optimizer estimates vs. observed reality.

    The corrective engine records, at every re-optimization poll, phase
    close and stitch-up, the cardinality the optimizer *estimated* for
    each plan node when the phase opened next to the value it *observes*
    now (the §4.2 extrapolated final cardinality under current
    selectivities).  The divergence is summarized as the q-error
    [max (est/actual, actual/est)], and every switch decision — taken or
    declined, including the §4.3 guarded-rule declines — is annotated
    with the worst-misestimated node as its *blame*.

    Everything here is engine-agnostic strings and floats; estimates are
    computed by the optimizer, which never charges the virtual clock, so
    calibration is zero-perturbation by construction. *)

type t

type point = Poll | Phase_close | Stitchup

type observation = {
  o_phase : string;
  o_at : float;  (** virtual seconds *)
  o_point : point;
  o_node : string;
  o_est : float;  (** cardinality frozen when the phase opened *)
  o_actual : float;  (** refreshed estimate under observed selectivities *)
  o_q : float;  (** q-error, >= 1.0 *)
}

type verdict =
  | Switched
  | Kept_same_plan  (** re-optimization returned the current plan *)
  | Kept_cost  (** switch cost did not beat the threshold *)
  | Kept_guard of string  (** §4.3 guard fired before costing *)

type decision = {
  d_phase : string;
  d_at : float;
  d_verdict : verdict;
  d_current_cost : float;  (** cost-to-go of the running plan *)
  d_best_cost : float;
  d_switch_cost : float;
  d_threshold : float;
  d_margin : float;
      (** [switch_cost -. threshold *. current_cost]: negative means the
          switch was (or would have been) justified by that much. *)
  d_blame : (string * float) option;  (** worst q-error node at the time *)
}

val create : unit -> t

val q_error : est:float -> actual:float -> float
(** [max (est/actual, actual/est)] floored at 1.0; treats values below
    one tuple as one tuple so empty nodes do not blow up. *)

val observe :
  t ->
  phase:string ->
  at:float ->
  point:point ->
  node:string ->
  est:float ->
  actual:float ->
  unit

val decide :
  t ->
  phase:string ->
  at:float ->
  verdict:verdict ->
  current_cost:float ->
  best_cost:float ->
  switch_cost:float ->
  threshold:float ->
  unit
(** Records a decision; the blame is the node with the worst latest
    q-error among observations made so far. *)

val observations : t -> observation list
(** In recording order. *)

val decisions : t -> decision list

val worst : t -> (string * float) option
(** Worst latest-per-node q-error so far. *)

val latest_by_node : t -> (string * observation) list
(** Latest observation per node, ordered by first appearance. *)

val render : Format.formatter -> t -> unit
(** The full ledger: per-node est/actual/q table then every decision. *)
