(* §4.5: evidence that selectivity is predictable.  A query joins ORDERS
   (sorted by its key, which is the join key) with a Zipf-distributed
   table Z on one attribute, then LINEITEM on a second Zipf attribute.
   Incremental 50-bucket histograms plus order detection predict the 2-way
   and 3-way join cardinalities from stream prefixes; attaching the
   histograms costs runtime (the paper measured ~+50%). *)

open Adp_relation
open Adp_datagen
open Adp_stats
open Adp_exec
open Adp_core
open Bench_common

let z_schema = Schema.make [ "z.a"; "z.b" ]

let setup () =
  let ds = Lazy.force uniform in
  let orders = ds.Tpch.orders and lineitem = ds.Tpch.lineitem in
  let n_orders = Relation.cardinality orders in
  let rng = Prng.create 31 in
  (* "Random Zipf parameter" per the paper. *)
  let z1 = 0.5 +. (Prng.float rng /. 2.0) in
  let z2 = 0.5 +. (Prng.float rng /. 2.0) in
  let za = Zipf.create ~n:n_orders ~z:z1 in
  let zb = Zipf.create ~n:n_orders ~z:z2 in
  let m = (2 * n_orders) / 3 in
  let ztable =
    Relation.of_list z_schema
      (List.init m (fun _ ->
           [| Value.Int (Zipf.sample za rng); Value.Int (Zipf.sample zb rng) |]))
  in
  orders, ztable, lineitem, (z1, z2)

let exact_counts orders ztable lineitem =
  (* |O ⋈ Z| on o_orderkey = z.a, and |O ⋈ Z ⋈ L| with z.b = l_orderkey. *)
  let count_by rel col =
    let idx = Schema.index (Relation.schema rel) col in
    let tbl = Hashtbl.create 4096 in
    Relation.iter
      (fun t ->
        let k = Value.to_float t.(idx) in
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      rel;
    tbl
  in
  let order_keys = count_by orders "orders.o_orderkey" in
  let line_keys = count_by lineitem "lineitem.l_orderkey" in
  let two = ref 0 and three = ref 0 in
  Relation.iter
    (fun t ->
      let a = Value.to_float t.(0) and b = Value.to_float t.(1) in
      match Hashtbl.find_opt order_keys a with
      | None -> ()
      | Some cnt ->
        two := !two + cnt;
        (match Hashtbl.find_opt line_keys b with
         | None -> ()
         | Some lcnt -> three := !three + (cnt * lcnt)))
    ztable;
  !two, !three

let run () =
  let orders, ztable, lineitem, (z1, z2) = setup () in
  let exact2, exact3 = exact_counts orders ztable lineitem in
  let s_ok = Join_estimator.side ~use_histograms:true in
  let s_za = Join_estimator.side ~use_histograms:true in
  let s_zb = Join_estimator.side ~use_histograms:true in
  let s_l = Join_estimator.side ~use_histograms:true in
  let feed rel col s lo hi =
    let idx = Schema.index (Relation.schema rel) col in
    for i = lo to hi - 1 do
      Join_estimator.observe s (Relation.get rel i).(idx)
    done
  in
  let n_o = Relation.cardinality orders in
  let n_z = Relation.cardinality ztable in
  let n_l = Relation.cardinality lineitem in
  let prev = ref (0, 0, 0) in
  let json = ref [] in
  let rows =
    List.map
      (fun pct ->
        let frac = float_of_int pct /. 100.0 in
        let po, pz, pl = !prev in
        let no = int_of_float (frac *. float_of_int n_o) in
        let nz = int_of_float (frac *. float_of_int n_z) in
        let nl = int_of_float (frac *. float_of_int n_l) in
        feed orders "orders.o_orderkey" s_ok po no;
        feed ztable "z.a" s_za pz nz;
        feed ztable "z.b" s_zb pz nz;
        feed lineitem "lineitem.l_orderkey" s_l pl nl;
        prev := (no, nz, nl);
        let est2 =
          Join_estimator.estimate ~left:(s_za, frac) ~right:(s_ok, frac)
        in
        let est_zb_l =
          Join_estimator.estimate ~left:(s_zb, frac) ~right:(s_l, frac)
        in
        let z_total = float_of_int nz /. frac in
        let est3 = est2 *. (est_zb_l /. max 1.0 z_total) in
        let err est exact =
          Printf.sprintf "%+.0f%%"
            (100.0 *. (est -. float_of_int exact) /. float_of_int exact)
        in
        json :=
          Bjson.num (Printf.sprintf "predict/%d%%/est-3way" pct) (Float.round est3)
          :: Bjson.num (Printf.sprintf "predict/%d%%/est-2way" pct)
               (Float.round est2)
          :: !json;
        [ string_of_int pct ^ "%";
          Printf.sprintf "%.0f" est2; string_of_int exact2; err est2 exact2;
          Printf.sprintf "%.0f" est3; string_of_int exact3; err est3 exact3 ])
      [ 10; 25; 40; 50; 60; 75; 90; 100 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Sec 4.5: join-size prediction from stream prefixes (histograms + \
          order detection; Zipf z1=%.2f z2=%.2f)"
         z1 z2)
    ~header:[ "seen"; "est 2-way"; "exact"; "err"; "est 3-way"; "exact"; "err" ]
    rows;
  (* Histogram overhead: the same 3-way join executed with and without
     50-bucket histogram maintenance on all three sources. *)
  let run_join ~with_histograms =
    let ctx = Ctx.create () in
    let mk name rel = Source.create ~name rel Source.Local in
    let so = mk "orders" orders
    and sz = mk "z" ztable
    and sl = mk "lineitem" lineitem in
    if with_histograms then begin
      let attach src col =
        let idx = Schema.index (Source.schema src) col in
        let h = Histogram.create ~buckets:50 in
        Source.observe src (fun t ->
            Ctx.charge ctx ctx.Ctx.costs.Cost_model.histogram_add;
            Histogram.add h t.(idx))
      in
      attach so "orders.o_orderkey";
      attach sz "z.a";
      attach sl "lineitem.l_orderkey"
    end;
    let spec =
      Plan.join
        (Plan.join (Plan.scan "z") (Plan.scan "orders")
           ~on:[ "z.a", "orders.o_orderkey" ])
        (Plan.scan "lineitem")
        ~on:[ "z.b", "lineitem.l_orderkey" ]
    in
    let schema_of = function
      | "orders" -> Relation.schema orders
      | "z" -> z_schema
      | "lineitem" -> Relation.schema lineitem
      | _ -> raise Not_found
    in
    let plan = Plan.instantiate ctx spec ~schema_of ~keep:Plan.keep_all in
    let consume src t = ignore (Plan.push plan ~source:(Source.name src) t) in
    ignore (Driver.run ctx ~sources:[ so; sz; sl ] ~consume ());
    Ctx.now ctx /. 1e6
  in
  let base = run_join ~with_histograms:false in
  let with_h = run_join ~with_histograms:true in
  Report.table
    ~title:"Sec 4.5: overhead of incremental histogram maintenance"
    ~header:[ "configuration"; "virtual time"; "overhead" ]
    [ [ "no histograms"; seconds base; "-" ];
      [ "50-bucket histograms on all 3 sources"; seconds with_h;
        Printf.sprintf "+%.0f%%" (100.0 *. ((with_h /. base) -. 1.0)) ] ];
  Bjson.emit ~bench:"sec45"
    (List.rev !json
    @ [ Bjson.count "exact/2way" exact2; Bjson.count "exact/3way" exact3;
        Bjson.time "join/no-histograms" base;
        Bjson.time "join/with-histograms" with_h ])
