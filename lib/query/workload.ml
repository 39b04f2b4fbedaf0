open Adp_relation
open Adp_datagen
open Adp_exec
open Adp_optimizer

type tpch_query = Q3 | Q3A | Q10 | Q10A | Q5

let evaluated = [ Q3A; Q10; Q10A; Q5 ]

let name = function
  | Q3 -> "Q3"
  | Q3A -> "Q3A"
  | Q10 -> "Q10"
  | Q10A -> "Q10A"
  | Q5 -> "Q5"

let of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt
    (fun q -> String.lowercase_ascii (name q) = s)
    [ Q3; Q3A; Q10; Q10A; Q5 ]

let revenue =
  "SUM(lineitem.l_extendedprice * (1 - lineitem.l_discount)) AS revenue"

let sql = function
  | Q3 ->
    "SELECT lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority, "
    ^ revenue
    ^ " FROM customer, orders, lineitem\
       \ WHERE customer.c_mktsegment = 'BUILDING'\
       \ AND customer.c_custkey = orders.o_custkey\
       \ AND lineitem.l_orderkey = orders.o_orderkey\
       \ AND orders.o_orderdate < DATE '1995-03-15'\
       \ AND lineitem.l_shipdate > DATE '1995-03-15'\
       \ GROUP BY lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority"
  | Q3A ->
    (* Q3 with the date-based selection predicates removed (§4.4). *)
    "SELECT lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority, "
    ^ revenue
    ^ " FROM customer, orders, lineitem\
       \ WHERE customer.c_mktsegment = 'BUILDING'\
       \ AND customer.c_custkey = orders.o_custkey\
       \ AND lineitem.l_orderkey = orders.o_orderkey\
       \ GROUP BY lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority"
  | Q10 ->
    "SELECT customer.c_custkey, customer.c_name, customer.c_acctbal, \
     nation.n_name, "
    ^ revenue
    ^ " FROM customer, orders, lineitem, nation\
       \ WHERE customer.c_custkey = orders.o_custkey\
       \ AND lineitem.l_orderkey = orders.o_orderkey\
       \ AND orders.o_orderdate >= DATE '1993-10-01'\
       \ AND orders.o_orderdate < DATE '1994-01-01'\
       \ AND lineitem.l_returnflag = 'R'\
       \ AND customer.c_nationkey = nation.n_nationkey\
       \ GROUP BY customer.c_custkey, customer.c_name, customer.c_acctbal, \
       nation.n_name"
  | Q10A ->
    (* Q10 with the date-based selection predicates removed (§4.4). *)
    "SELECT customer.c_custkey, customer.c_name, customer.c_acctbal, \
     nation.n_name, "
    ^ revenue
    ^ " FROM customer, orders, lineitem, nation\
       \ WHERE customer.c_custkey = orders.o_custkey\
       \ AND lineitem.l_orderkey = orders.o_orderkey\
       \ AND lineitem.l_returnflag = 'R'\
       \ AND customer.c_nationkey = nation.n_nationkey\
       \ GROUP BY customer.c_custkey, customer.c_name, customer.c_acctbal, \
       nation.n_name"
  | Q5 ->
    "SELECT nation.n_name, "
    ^ revenue
    ^ " FROM customer, orders, lineitem, supplier, nation, region\
       \ WHERE customer.c_custkey = orders.o_custkey\
       \ AND lineitem.l_orderkey = orders.o_orderkey\
       \ AND lineitem.l_suppkey = supplier.s_suppkey\
       \ AND customer.c_nationkey = supplier.s_nationkey\
       \ AND supplier.s_nationkey = nation.n_nationkey\
       \ AND nation.n_regionkey = region.r_regionkey\
       \ AND region.r_name = 'ASIA'\
       \ AND orders.o_orderdate >= DATE '1994-01-01'\
       \ AND orders.o_orderdate < DATE '1995-01-01'\
       \ GROUP BY nation.n_name"

let query q = Sql_parser.parse ~schema_of:Tpch.schema_of (sql q)

let catalog ?(with_cardinalities = false) dataset (q : Logical.query) =
  let cat = Catalog.create () in
  List.iter
    (fun (s : Logical.source) ->
      let rel = Tpch.table dataset s.name in
      Catalog.add cat s.name
        { Catalog.schema = Tpch.schema_of s.name;
          cardinality =
            (if with_cardinalities then
               Some (float_of_int (Relation.cardinality rel))
             else None);
          key = Some (Tpch.key_of s.name) })
    q.sources;
  cat

let sources ?(model = Source.Local) ?(seed = 17) dataset (q : Logical.query) () =
  List.mapi
    (fun i (s : Logical.source) ->
      Source.create ~seed:(seed + i) ~name:s.name (Tpch.table dataset s.name)
        model)
    q.sources

(* ---------------- Example 2.1 ---------------- *)

let flights_sql =
  "SELECT f.fid, f.from_city, MAX(c.num) AS most_children\
   \ FROM f, t, c\
   \ WHERE f.fid = t.flight AND t.ssn = c.parent\
   \ GROUP BY f.fid, f.from_city"

let flights_schema_of = function
  | "f" -> Flights.flights_schema
  | "t" -> Flights.travelers_schema
  | "c" -> Flights.children_schema
  | _ -> raise Not_found

let flights_query = Sql_parser.parse ~schema_of:flights_schema_of flights_sql

let flights_catalog ?(with_cardinalities = false) (d : Flights.t) =
  let cat = Catalog.create () in
  let add name rel key =
    Catalog.add cat name
      { Catalog.schema = Relation.schema rel;
        cardinality =
          (if with_cardinalities then
             Some (float_of_int (Relation.cardinality rel))
           else None);
        key }
  in
  add "f" d.flights (Some "f.fid");
  add "t" d.travelers None;
  add "c" d.children (Some "c.parent");
  cat

let flights_sources ?(model = Source.Local) ?(seed = 23) (d : Flights.t) () =
  [ Source.create ~seed ~name:"f" d.flights model;
    Source.create ~seed:(seed + 1) ~name:"t" d.travelers model;
    Source.create ~seed:(seed + 2) ~name:"c" d.children model ]
