open Adp_relation

(** The running example of the paper (Example 2.1): flights
    [F(fid, from_city, to_city, when_day)], travelers [T(ssn, flight)] and
    children-per-traveler [C(parent, num)], stored in randomly distributed
    order.  The query asks for the flight whose traveler has the most
    children:

    {v Group[fid, from] max(num) (F ⋈ T ⋈ C) v}

    The generator can skew how often travelers fly ([frequent_flyers]),
    which is what makes pre-aggregation before the join pay off
    (Example 2.3).

    As in {!Tpch}, rows share one immutable block per distinct int and
    city: never mutate a value or compare values physically. *)

type config = {
  n_flights : int;
  n_travelers : int;
  trips_per_traveler : int;  (** average; actual counts are randomized *)
  frequent_flyers : bool;
      (** when set, trip counts follow a Zipf distribution so a few
          travelers fly very often *)
  seed : int;
}

val default_config : config

type t = {
  config : config;
  flights : Relation.t;  (** F(fid, from_city, to_city, when_day) *)
  travelers : Relation.t;  (** T(ssn, flight) *)
  children : Relation.t;  (** C(parent, num) *)
}

val generate : config -> t

val flights_schema : Schema.t
val travelers_schema : Schema.t
val children_schema : Schema.t
