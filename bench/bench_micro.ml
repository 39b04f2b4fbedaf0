(* Bechamel micro-benchmarks: the dominant per-tuple kernel of each table
   and figure, measured in wall-clock nanoseconds per operation. *)

open Bechamel
open Toolkit
open Adp_relation
open Adp_exec
open Adp_storage
open Adp_datagen

let vi i = Value.Int i
let keyed prefix = Schema.make [ prefix ^ ".k"; prefix ^ ".p" ]

(* Figure 2 / Figure 3 kernel: a tuple pushed through a two-join pipeline. *)
let test_plan_push =
  Test.make ~name:"figure2/3: pipelined join push"
    (Staged.stage
       (let ctx = Ctx.create () in
        let spec =
          Plan.join
            (Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ])
            (Plan.scan "u") ~on:[ "s.p", "u.k" ]
        in
        let schema_of = function
          | "r" -> keyed "r"
          | "s" -> Schema.make [ "s.k"; "s.p" ]
          | "u" -> keyed "u"
          | _ -> raise Not_found
        in
        let plan = Plan.instantiate ctx spec ~schema_of in
        for i = 0 to 999 do
          ignore (Plan.push plan ~source:"s" [| vi (i mod 97); vi (i mod 89) |]);
          ignore (Plan.push plan ~source:"u" [| vi (i mod 89); vi i |])
        done;
        let i = ref 0 in
        fun () ->
          incr i;
          ignore (Plan.push plan ~source:"r" [| vi (!i mod 97); vi !i |])))

(* Table 1 / Table 2 kernel: registry registration and lookup. *)
let test_registry =
  Test.make ~name:"table1/2: registry register+find"
    (Staged.stage
       (let schema = keyed "e" in
        let registry = Registry.create () in
        let i = ref 0 in
        fun () ->
          incr i;
          let signature = "sig" ^ string_of_int (!i mod 64) in
          Registry.register registry ~signature ~phase:(!i mod 4) ~schema
            ~complexity:2
            [ [| vi !i; vi 0 |] ];
          ignore (Registry.find registry ~signature ~phase:(!i mod 4))))

(* Figure 5 kernel: complementary join insert through the router. *)
let test_comp_insert =
  Test.make ~name:"figure5: complementary join insert"
    (Staged.stage
       (let ctx = Ctx.create () in
        let cj =
          Comp_join.create ctx ~variant:(Comp_join.Priority_queue 1024)
            ~left_schema:(keyed "l") ~right_schema:(keyed "r")
            ~left_key:[ "l.k" ] ~right_key:[ "r.k" ]
        in
        let i = ref 0 in
        fun () ->
          incr i;
          ignore (Comp_join.insert cj Comp_join.L [| vi !i; vi 0 |])))

(* Table 3 kernel: the naive order-based routing decision. *)
let test_router =
  Test.make ~name:"table3: naive routing decision"
    (Staged.stage
       (let ctx = Ctx.create () in
        let cj =
          Comp_join.create ctx ~variant:Comp_join.Naive ~left_schema:(keyed "l")
            ~right_schema:(keyed "r") ~left_key:[ "l.k" ] ~right_key:[ "r.k" ]
        in
        let rng = Prng.create 3 in
        fun () ->
          ignore (Comp_join.insert cj Comp_join.L [| vi (Prng.int rng 1000); vi 0 |])))

(* Figure 6 kernel: adjustable-window pre-aggregation update. *)
let test_preagg =
  Test.make ~name:"figure6: windowed pre-aggregation update"
    (Staged.stage
       (let ctx = Ctx.create () in
        let aggs = [ Aggregate.sum ~name:"s" (Expr.col "d.v") ] in
        let spec =
          Plan.preagg
            ~mode:(Plan.Windowed { initial = 64; max_window = 65536 })
            ~group_cols:[ "d.g" ] ~aggs (Plan.scan "d")
        in
        let schema_of = function
          | "d" -> Schema.make [ "d.g"; "d.v" ]
          | _ -> raise Not_found
        in
        let plan = Plan.instantiate ctx spec ~schema_of in
        let i = ref 0 in
        fun () ->
          incr i;
          ignore (Plan.push plan ~source:"d" [| vi (!i mod 50); vi !i |])))

(* §4.5 kernel: incremental histogram maintenance. *)
let test_histogram =
  Test.make ~name:"sec45: dynamic compressed histogram add"
    (Staged.stage
       (let h = Adp_stats.Histogram.create ~buckets:50 in
        let rng = Prng.create 7 in
        fun () -> Adp_stats.Histogram.add h (vi (Prng.int rng 100000))))

(* Substrate kernels. *)
let test_btree =
  Test.make ~name:"substrate: B+ tree insert"
    (Staged.stage
       (let b = Btree.create (keyed "t") ~key_cols:[ "t.k" ] in
        let rng = Prng.create 9 in
        fun () -> Btree.insert b [| vi (Prng.int rng 1000000); vi 0 |]))

let test_optimizer =
  Test.make ~name:"substrate: optimizer invocation (4-way bushy)"
    (Staged.stage
       (let ds =
          Tpch.generate
            { Tpch.scale = 0.001; distribution = Tpch.Uniform; seed = 3 }
        in
        let q = Adp_query.Workload.query Adp_query.Workload.Q10A in
        let catalog = Adp_query.Workload.catalog ds q in
        let sels = Adp_stats.Selectivity.create () in
        fun () -> ignore (Adp_optimizer.Optimizer.optimize q catalog sels)))

let tests =
  [ test_plan_push; test_registry; test_comp_insert; test_router;
    test_preagg; test_histogram; test_btree; test_optimizer ]

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let measured =
    List.map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analyzed = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> Some est
              | Some _ | None -> None
            in
            (name, ns) :: acc)
          analyzed []
        |> List.sort compare)
      tests
    |> List.concat
    |> List.sort compare
  in
  let rows =
    List.map
      (fun (name, ns) ->
        [ name;
          (match ns with
           | Some est -> Printf.sprintf "%.1f ns" est
           | None -> "n/a") ])
      measured
  in
  Adp_core.Report.table
    ~title:"Micro-benchmarks (Bechamel, wall-clock per operation)"
    ~header:[ "kernel"; "time/op" ] rows;
  Bench_common.Bjson.emit ~bench:"micro"
    (List.map
       (fun (name, ns) ->
         Bench_common.Bjson.wall
           (Bench_common.Bjson.slug name ^ "/ns-per-op")
           (Option.value ~default:(-1.0) ns))
       measured)
