open Adp_datagen
open Adp_exec
open Adp_optimizer

(** The paper's evaluation workload (§3.5, §4.4): the TPC-H queries that
    fit the select-project-join-aggregation model — Q3, Q10, Q5 — plus the
    variants 3A and 10A with their date-based selection predicates removed
    (making them much more expensive), and the flights query of
    Example 2.1.  All queries are expressed in SQL and parsed through
    {!Sql_parser}. *)

type tpch_query = Q3 | Q3A | Q10 | Q10A | Q5

(** Every bundled TPC-H query, in the order above. *)
val all : tpch_query list

(** The four queries of Figures 2/3/6 and Tables 1/2. *)
val evaluated : tpch_query list

val name : tpch_query -> string

(** The bundled query a name denotes (["Q3"], ["Q3A"], ["Q10"], ["Q10A"]
    or ["Q5"]; case-insensitive, surrounding blanks ignored), or [None]
    for any other text, such as SQL. *)
val of_name : string -> tpch_query option

val sql : tpch_query -> string
val query : tpch_query -> Logical.query

(** Build a catalog for the query's relations over a generated dataset.
    [with_cardinalities] controls whether the optimizer is given source
    cardinalities (the paper's "Cardinalities" vs "No Statistics" bars);
    declared keys are always available (they are schema-level knowledge). *)
val catalog : ?with_cardinalities:bool -> Tpch.t -> Logical.query -> Catalog.t

(** Source factory over the dataset for the query's relations; the same
    arrival [model] applies to all sources (default [Local]). *)
val sources :
  ?model:Source.model -> ?seed:int -> Tpch.t -> Logical.query ->
  unit -> Source.t list

(** {2 Example 2.1 (flights)} *)

val flights_sql : string
val flights_query : Logical.query
val flights_catalog : ?with_cardinalities:bool -> Flights.t -> Catalog.t

val flights_sources :
  ?model:Source.model -> ?seed:int -> Flights.t -> unit -> Source.t list
