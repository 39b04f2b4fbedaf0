open Adp_relation

type distribution = Uniform | Skewed of float

type config = { scale : float; distribution : distribution; seed : int }

let default_config = { scale = 0.01; distribution = Uniform; seed = 42 }

type t = {
  config : config;
  region : Relation.t;
  nation : Relation.t;
  supplier : Relation.t;
  customer : Relation.t;
  orders : Relation.t;
  lineitem : Relation.t;
}

let region_names = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

let nation_names =
  [| "ALGERIA"; "ARGENTINA"; "BRAZIL"; "CANADA"; "EGYPT"; "ETHIOPIA";
     "FRANCE"; "GERMANY"; "INDIA"; "INDONESIA"; "IRAN"; "IRAQ"; "JAPAN";
     "JORDAN"; "KENYA"; "MOROCCO"; "MOZAMBIQUE"; "PERU"; "CHINA";
     "ROMANIA"; "SAUDI ARABIA"; "VIETNAM"; "RUSSIA"; "UNITED KINGDOM";
     "UNITED STATES" |]

(* Region of each nation, mirroring dbgen's fixed mapping. *)
let nation_regions =
  [| 0; 1; 1; 1; 4; 0; 3; 3; 2; 2; 4; 4; 2; 4; 0; 0; 0; 1; 2; 3; 4; 2; 3;
     3; 1 |]

let mktsegments =
  [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]

let order_statuses = [| "F"; "O"; "P" |]
let return_flags = [| "R"; "A"; "N"; "N" |]

let schemas =
  [ "region", [ "region.r_regionkey"; "region.r_name" ];
    "nation", [ "nation.n_nationkey"; "nation.n_name"; "nation.n_regionkey" ];
    "supplier",
    [ "supplier.s_suppkey"; "supplier.s_name"; "supplier.s_nationkey";
      "supplier.s_acctbal" ];
    "customer",
    [ "customer.c_custkey"; "customer.c_name"; "customer.c_nationkey";
      "customer.c_acctbal"; "customer.c_mktsegment" ];
    "orders",
    [ "orders.o_orderkey"; "orders.o_custkey"; "orders.o_orderstatus";
      "orders.o_totalprice"; "orders.o_orderdate"; "orders.o_shippriority" ];
    "lineitem",
    [ "lineitem.l_orderkey"; "lineitem.l_partkey"; "lineitem.l_suppkey";
      "lineitem.l_linenumber"; "lineitem.l_quantity";
      "lineitem.l_extendedprice"; "lineitem.l_discount";
      "lineitem.l_returnflag"; "lineitem.l_shipdate" ] ]

let table_names = List.map fst schemas

let schema_of name =
  match List.assoc_opt name schemas with
  | Some cols -> Schema.make cols
  | None -> raise Not_found

let keys =
  [ "region", "region.r_regionkey"; "nation", "nation.n_nationkey";
    "supplier", "supplier.s_suppkey"; "customer", "customer.c_custkey";
    "orders", "orders.o_orderkey"; "lineitem", "lineitem.l_orderkey" ]

let key_of name =
  match List.assoc_opt name keys with
  | Some k -> k
  | None -> raise Not_found

(* TPC-H dates span 1992-01-01 .. 1998-08-02 (day 0 .. day 2405). *)
let max_orderdate = 2284 (* leave room for shipdate = orderdate + <= 121 *)

let skew_pick rng dist ~n =
  (* Foreign keys and value ranks in [1, n]: uniform draws under
     [Uniform]; Zipf ranks mapped onto the key space under [Skewed].  The
     Zipf table is memoized per (n, z) by the caller. *)
  match dist with
  | None -> 1 + Prng.int rng n
  | Some zipf -> (Zipf.sample zipf rng - 1) mod n + 1

let str_values names = Array.map (fun s -> Value.Str s) names

let generate config =
  let rng = Prng.create config.seed in
  let n_supplier = max 10 (int_of_float (10_000.0 *. config.scale)) in
  let n_customer = max 30 (int_of_float (150_000.0 *. config.scale)) in
  let n_orders = 10 * n_customer in
  let zipf_for n =
    match config.distribution with
    | Uniform -> None
    | Skewed z -> Some (Zipf.create ~n ~z)
  in
  let cust_zipf = zipf_for n_customer in
  let supp_zipf = zipf_for n_supplier in
  let nation_zipf = zipf_for (Array.length nation_names) in
  let price_zipf = zipf_for 1000 in
  (* Every repeated value is one immutable block, shared by all the rows
     that hold it: keys and small ints (so an order's key is one block in
     orders and in each of its lineitems), dates, the categorical strings
     and the small-domain floats.  Only the values unique to a row
     (names, account balances, extended prices) are boxed per row. *)
  let ints = Array.init (max n_orders 20_000 + 1) (fun i -> Value.Int i) in
  let dates = Array.init (max_orderdate + 122) (fun d -> Value.Date d) in
  let segments = str_values mktsegments in
  let statuses = str_values order_statuses in
  let flags = str_values return_flags in
  let totals =
    Array.init 1001 (fun r -> Value.Float (float_of_int r *. 181.13 +. 857.71))
  in
  let quantities = Array.init 51 (fun q -> Value.Float (float_of_int q)) in
  let discounts =
    Array.init 11 (fun d -> Value.Float (float_of_int d /. 100.0))
  in

  let region =
    Relation.of_list (schema_of "region")
      (List.init (Array.length region_names) (fun i ->
           [| ints.(i); Value.Str region_names.(i) |]))
  in
  let nation =
    Relation.of_list (schema_of "nation")
      (List.init (Array.length nation_names) (fun i ->
           [| ints.(i); Value.Str nation_names.(i);
              ints.(nation_regions.(i)) |]))
  in
  let supplier = Relation.create (schema_of "supplier") in
  let s_rng = Prng.split rng in
  for k = 1 to n_supplier do
    let nk = skew_pick s_rng nation_zipf ~n:(Array.length nation_names) - 1 in
    Relation.append supplier
      [| ints.(k); Value.Str (Printf.sprintf "Supplier#%09d" k);
         ints.(nk); Value.Float (Prng.float s_rng *. 9999.0 -. 999.0) |]
  done;
  let customer = Relation.create (schema_of "customer") in
  let c_rng = Prng.split rng in
  for k = 1 to n_customer do
    let nk = skew_pick c_rng nation_zipf ~n:(Array.length nation_names) - 1 in
    Relation.append customer
      [| ints.(k); Value.Str (Printf.sprintf "Customer#%09d" k);
         ints.(nk); Value.Float (Prng.float c_rng *. 9999.0 -. 999.0);
         Prng.choice c_rng segments |]
  done;
  let orders = Relation.create (schema_of "orders") in
  let lineitem = Relation.create (schema_of "lineitem") in
  let o_rng = Prng.split rng in
  let l_rng = Prng.split rng in
  (* An array literal evaluates its elements right to left, so the draws
     inside the literals below happen last element first; moving one out
     of its literal would reorder the stream. *)
  for ok = 1 to n_orders do
    let ck = skew_pick o_rng cust_zipf ~n:n_customer in
    let odate = Prng.int o_rng max_orderdate in
    let price_rank = skew_pick o_rng price_zipf ~n:1000 in
    Relation.append orders
      [| ints.(ok); ints.(ck); Prng.choice o_rng statuses; totals.(price_rank);
         dates.(odate); ints.(Prng.int o_rng 5) |];
    (* Return flags correlate within an order (as dbgen ties them to the
       order's receipt date), so selections on l_returnflag keep whole
       orders — which is what makes pre-aggregation on l_orderkey
       worthwhile after such a filter. *)
    let order_flag = Prng.choice l_rng flags in
    let n_lines = 1 + Prng.int l_rng 7 in
    for ln = 1 to n_lines do
      let sk = skew_pick l_rng supp_zipf ~n:n_supplier in
      let q = (skew_pick l_rng price_zipf ~n:1000 mod 50) + 1 in
      let eprice =
        float_of_int q *. (900.0 +. float_of_int (Prng.int l_rng 10_0000) /. 100.0)
      in
      Relation.append lineitem
        [| ints.(ok); ints.(1 + Prng.int l_rng 20000); ints.(sk);
           ints.(ln); quantities.(q); Value.Float eprice;
           discounts.(Prng.int l_rng 11); order_flag;
           dates.(odate + 1 + Prng.int l_rng 121) |]
    done
  done;
  { config; region; nation; supplier; customer; orders; lineitem }

let table t = function
  | "region" -> t.region
  | "nation" -> t.nation
  | "supplier" -> t.supplier
  | "customer" -> t.customer
  | "orders" -> t.orders
  | "lineitem" -> t.lineitem
  | _ -> raise Not_found
