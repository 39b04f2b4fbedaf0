open Adp_relation
open Adp_exec
open Adp_optimizer

(** Redundant computation (§2.1): several competing plans process the same
    data until a time threshold, then all but the furthest-progressed plan
    are terminated and the winner finishes the query.  Each competitor
    reads its own cursor over the sources (supplied by a factory), so the
    exploration cost — charged in full to the shared clock — is the
    technique's defining overhead. *)

type stats = {
  candidates : int;
  winner : int;  (** index of the winning plan, 0 = optimizer's choice *)
  winner_desc : string;
  explore_time : float;  (** virtual time spent before the decision *)
  total_time : float;
  cpu : float;
  idle : float;
  result_card : int;
}

val run :
  ?candidates:int ->
  ?explore_budget:float ->
  Logical.query ->
  Catalog.t ->
  sources:(unit -> Source.t list) ->
  Relation.t * stats
