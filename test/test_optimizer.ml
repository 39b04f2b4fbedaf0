open Adp_relation
open Adp_exec
open Adp_optimizer
open Helpers

(* A small star query: fact f(k1, k2, v) joins dims a(k, ...) and b(k, ...). *)

let fact_schema = Schema.make [ "f.k1"; "f.k2"; "f.v" ]
let dim_schema prefix = Schema.make [ prefix ^ ".k"; prefix ^ ".w" ]

let catalog ?(fact_card = 10_000.0) () =
  let c = Catalog.create () in
  Catalog.add c "f"
    { Catalog.schema = fact_schema; cardinality = Some fact_card; key = None };
  Catalog.add c "a"
    { Catalog.schema = dim_schema "a"; cardinality = Some 100.0;
      key = Some "a.k" };
  Catalog.add c "b"
    { Catalog.schema = dim_schema "b"; cardinality = Some 1000.0;
      key = Some "b.k" };
  c

let query ?(a_filter = Predicate.tt) () =
  { Logical.sources =
      [ { Logical.name = "f"; filter = Predicate.tt };
        { Logical.name = "a"; filter = a_filter };
        { Logical.name = "b"; filter = Predicate.tt } ];
    join_preds = [ "f.k1", "a.k"; "f.k2", "b.k" ];
    group_cols = [ "a.w" ];
    aggs = [ Aggregate.sum ~name:"s" (Expr.col "f.v") ];
    projection = [] }

(* ---------------- Logical ---------------- *)

let test_logical_helpers () =
  let q = query () in
  Alcotest.(check (list string)) "sources" [ "f"; "a"; "b" ]
    (Logical.source_names q);
  Alcotest.(check string) "relation of column" "f"
    (Logical.relation_of_column "f.k1");
  Alcotest.(check (list (pair string string))) "preds between"
    [ "f.k1", "a.k" ]
    (Logical.preds_between q ~inside:[ "f" ] ~outside:[ "a" ]);
  Alcotest.(check (list string)) "preds within" [ "a.k=f.k1" ]
    (Logical.preds_within q [ "f"; "a" ]);
  Alcotest.(check string) "signature matches executor"
    (Plan.signature_of
       (Plan.join (Plan.scan "f") (Plan.scan "a") ~on:[ "f.k1", "a.k" ]))
    (Logical.signature_of_set q [ "f"; "a" ])

let test_logical_validate () =
  let schema_of = Catalog.schema_of (catalog ()) in
  Logical.validate ~schema_of (query ());
  let bad_col = { (query ()) with Logical.group_cols = [ "a.zz" ] } in
  (try
     Logical.validate ~schema_of bad_col;
     Alcotest.fail "bad column accepted"
   with Invalid_argument _ -> ());
  let disconnected = { (query ()) with Logical.join_preds = [ "f.k1", "a.k" ] } in
  (try
     Logical.validate ~schema_of disconnected;
     Alcotest.fail "disconnected accepted"
   with Invalid_argument _ -> ())

(* [Logical.connected] as it was written with a hash set of reached
   relations: the reference the list-based fixpoint must agree with. *)
let connected_reference (q : Logical.query) rels =
  match rels with
  | [] | [ _ ] -> true
  | first :: _ ->
    let reached = Hashtbl.create 8 in
    Hashtbl.replace reached first ();
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (a, b) ->
          let ra = Logical.relation_of_column a
          and rb = Logical.relation_of_column b in
          if List.mem ra rels && List.mem rb rels then begin
            let ha = Hashtbl.mem reached ra and hb = Hashtbl.mem reached rb in
            if ha && not hb then begin
              Hashtbl.replace reached rb ();
              changed := true
            end;
            if hb && not ha then begin
              Hashtbl.replace reached ra ();
              changed := true
            end
          end)
        q.join_preds
    done;
    List.for_all (Hashtbl.mem reached) rels

(* Random join graphs over up to seven relations (self-joins and
   repeated edges included), probed with random relation lists that may
   repeat a name or name a relation the query lacks. *)
let connected_matches_reference =
  QCheck2.Test.make ~name:"connected agrees with its reference (qcheck)"
    ~count:300
    QCheck2.Gen.(
      let rel = map (Printf.sprintf "r%d") (int_bound 7) in
      let col =
        map2 (fun r c -> Printf.sprintf "%s.c%d" r c) rel (int_bound 2)
      in
      pair (list_size (int_bound 10) (pair col col))
        (list_size (int_bound 6) rel))
    (fun (join_preds, rels) ->
      let q = { (query ()) with Logical.join_preds } in
      Logical.connected q rels = connected_reference q rels)

(* ---------------- Catalog & cardinality ---------------- *)

let test_catalog_defaults () =
  let c = Catalog.create () in
  Catalog.add c "x"
    { Catalog.schema = dim_schema "x"; cardinality = None; key = None };
  Alcotest.(check (float 0.0)) "default card" 20000.0 (Catalog.cardinality c "x");
  Alcotest.(check bool) "is_key false" false
    (Catalog.is_key c ~relation:"x" ~column:"x.k");
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Catalog.info c "nope"))

let test_cardinality_key_fk () =
  let sels = Adp_stats.Selectivity.create () in
  let est = Cardinality.create (query ()) (catalog ()) sels in
  (* f ⋈ a through a's key: output ≈ |f|. *)
  let c = Cardinality.set_cardinality est [ "f"; "a" ] in
  Alcotest.(check bool)
    (Printf.sprintf "key-FK preserves fact card (got %.0f)" c)
    true
    (c > 5000.0 && c < 20000.0)

let test_cardinality_filter () =
  let q = query ~a_filter:(Predicate.eq "a.w" (vi 1)) () in
  let sels = Adp_stats.Selectivity.create () in
  let est = Cardinality.create q (catalog ()) sels in
  Alcotest.(check (float 1e-6)) "filtered leaf" 10.0
    (Cardinality.leaf_cardinality est "a");
  Alcotest.(check (float 1e-6)) "raw leaf" 100.0 (Cardinality.raw_cardinality est "a")

let test_cardinality_observed_override () =
  let q = query () in
  let sels = Adp_stats.Selectivity.create () in
  let est = Cardinality.create q (catalog ()) sels in
  let before = Cardinality.set_cardinality est [ "f"; "a" ] in
  (* Observe a selectivity that makes the join 10x bigger. *)
  Adp_stats.Selectivity.observe sels
    ~signature:(Logical.signature_of_set q [ "f"; "a" ])
    ~output:(before *. 10.0)
    ~input_product:(10_000.0 *. 100.0);
  Cardinality.refresh est;
  let after = Cardinality.set_cardinality est [ "f"; "a" ] in
  Alcotest.(check bool) "observation overrides" true
    (Float.abs (after -. (before *. 10.0)) < 1.0)

let test_cardinality_multiplicative_flag () =
  let q = query () in
  let sels = Adp_stats.Selectivity.create () in
  let est = Cardinality.create q (catalog ()) sels in
  let before = Cardinality.set_cardinality est [ "f"; "b" ] in
  Adp_stats.Selectivity.flag_multiplicative sels ~predicate:"b.k=f.k2"
    ~factor:5.0;
  Cardinality.refresh est;
  let after = Cardinality.set_cardinality est [ "f"; "b" ] in
  Alcotest.(check bool) "flag inflates estimate" true (after > before)

let test_filter_selectivity () =
  Alcotest.(check (float 1e-9)) "true" 1.0
    (Cardinality.filter_selectivity Predicate.tt);
  Alcotest.(check (float 1e-9)) "eq" 0.1
    (Cardinality.filter_selectivity (Predicate.eq "c" (vi 1)));
  Alcotest.(check bool) "and multiplies" true
    (Cardinality.filter_selectivity
       Predicate.(eq "c" (vi 1) &&& eq "d" (vi 2))
     < 0.02)

(* ---------------- Enumeration / optimizer ---------------- *)

let test_optimizer_orders_by_size () =
  (* With a tiny filtered dimension, the best plan joins it early. *)
  let q = query ~a_filter:(Predicate.eq "a.w" (vi 1)) () in
  let sels = Adp_stats.Selectivity.create () in
  let r = Optimizer.optimize q (catalog ()) sels in
  (* The join tree must attach "a" below the root (joined before b). *)
  (match r.Optimizer.spec with
   | Plan.Join { left; right; _ } ->
     let rels_l = Plan.relations left and rels_r = Plan.relations right in
     Alcotest.(check bool) "a joined with f before b" true
       (rels_l = [ "a"; "f" ] || rels_r = [ "a"; "f" ]
       || rels_l = [ "b" ] || rels_r = [ "b" ])
   | Plan.Scan _ | Plan.Preagg _ -> Alcotest.fail "expected join at root");
  Alcotest.(check bool) "cost positive" true (r.Optimizer.est_cost > 0.0)

let test_optimizer_no_cross_products () =
  let q = query () in
  let sels = Adp_stats.Selectivity.create () in
  let r = Optimizer.optimize q (catalog ()) sels in
  let rec check = function
    | Plan.Scan _ -> ()
    | Plan.Preagg p -> check p.child
    | Plan.Join j ->
      Alcotest.(check bool) "join has predicates" true (j.left_key <> []);
      check j.left;
      check j.right
  in
  check r.Optimizer.spec

let test_alternatives () =
  let q = query () in
  let sels = Adp_stats.Selectivity.create () in
  let alts = Optimizer.alternatives ~k:3 q (catalog ()) sels in
  Alcotest.(check bool) "at least 2 alternatives" true (List.length alts >= 2);
  let costs = List.map (fun r -> r.Optimizer.est_cost) alts in
  Alcotest.(check bool) "sorted by cost" true
    (costs = List.sort Float.compare costs)

let test_preagg_point () =
  let q = query () in
  (match Optimizer.preagg_point q with
   | Some (rel, groups) ->
     Alcotest.(check string) "aggregated relation" "f" rel;
     Alcotest.(check bool) "join cols included" true
       (List.mem "f.k1" groups && List.mem "f.k2" groups)
   | None -> Alcotest.fail "expected a preagg point");
  (* Aggregates spanning relations admit no push-down. *)
  let spanning =
    { (query ()) with
      Logical.aggs =
        [ Aggregate.sum ~name:"s" Expr.(Add (col "f.v", col "a.w")) ] }
  in
  Alcotest.(check bool) "no point when spanning" true
    (Optimizer.preagg_point spanning = None)

let test_optimize_with_preagg () =
  let q = query () in
  let sels = Adp_stats.Selectivity.create () in
  let r = Optimizer.optimize ~preagg:Optimizer.Auto q (catalog ()) sels in
  let rec has_preagg = function
    | Plan.Scan _ -> false
    | Plan.Preagg _ -> true
    | Plan.Join j -> has_preagg j.left || has_preagg j.right
  in
  Alcotest.(check bool) "preagg inserted" true (has_preagg r.Optimizer.spec)

let test_pessimal () =
  let q = query ~a_filter:(Predicate.eq "a.w" (vi 1)) () in
  let sels = Adp_stats.Selectivity.create () in
  let best = Optimizer.optimize q (catalog ()) sels in
  let worst = Optimizer.pessimal q (catalog ()) sels in
  Alcotest.(check bool) "worst costs at least best" true
    (worst.Optimizer.est_cost >= best.Optimizer.est_cost);
  (* The pessimal plan never contains a cross product. *)
  let rec no_cross = function
    | Plan.Scan _ -> true
    | Plan.Preagg p -> no_cross p.child
    | Plan.Join j -> j.left_key <> [] && no_cross j.left && no_cross j.right
  in
  Alcotest.(check bool) "no cross products" true (no_cross worst.Optimizer.spec)

let test_final_cardinality_learning () =
  (* Once a source is exhausted, its true cardinality overrides the
     catalog — even when the catalog lied. *)
  let q = query () in
  let sels = Adp_stats.Selectivity.create () in
  let est = Cardinality.create q (catalog ~fact_card:5.0 ()) sels in
  Alcotest.(check (float 1e-6)) "catalog lie believed" 5.0
    (Cardinality.raw_cardinality est "f");
  Adp_stats.Selectivity.observe_cardinality sels ~relation:"f" ~seen:400;
  Cardinality.refresh est;
  Alcotest.(check (float 1e-6)) "seen is a lower bound" 400.0
    (Cardinality.raw_cardinality est "f");
  Adp_stats.Selectivity.observe_final_cardinality sels ~relation:"f"
    ~total:10_000;
  Cardinality.refresh est;
  Alcotest.(check (float 1e-6)) "exhaustion reveals the truth" 10_000.0
    (Cardinality.raw_cardinality est "f")

let optimizer_plans_agree =
  QCheck2.Test.make
    ~name:"all enumerated plans produce the same result (qcheck)" ~count:25
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let rng = Adp_datagen.Prng.create seed in
      let f =
        List.init 60 (fun _ ->
            [| vi (1 + Adp_datagen.Prng.int rng 10);
               vi (1 + Adp_datagen.Prng.int rng 20); vi 1 |])
      in
      let a = List.init 10 (fun i -> [| vi (i + 1); vi (i mod 3) |]) in
      let b = List.init 20 (fun i -> [| vi (i + 1); vi i |]) in
      let q = query () in
      let sels = Adp_stats.Selectivity.create () in
      let alts = Optimizer.alternatives ~k:3 q (catalog ()) sels in
      let data = [ "f", f; "a", a; "b", b ] in
      let run (r : Optimizer.result) =
        let ctx = Ctx.create () in
        let plan =
          instantiate ctx r.Optimizer.spec
            ~schema_of:(Catalog.schema_of (catalog ()))
        in
        let outs =
          List.concat_map
            (fun (name, tuples) ->
              List.concat_map (fun t -> Plan.push plan ~source:name t) tuples)
            data
          @ Plan.flush plan
        in
        (* Compare on a canonical column order. *)
        let into =
          Schema.make
            [ "f.k1"; "f.k2"; "f.v"; "a.k"; "a.w"; "b.k"; "b.w" ]
        in
        let perm = Schema.permutation ~from:(Plan.schema plan) ~into in
        List.map (fun t -> Tuple.project t perm) outs
      in
      match List.map run alts with
      | [] -> false
      | first :: rest -> List.for_all (same_bag first) rest)

let suite =
  [ Alcotest.test_case "logical helpers" `Quick test_logical_helpers;
    Alcotest.test_case "logical validation" `Quick test_logical_validate;
    qtest connected_matches_reference;
    Alcotest.test_case "catalog defaults" `Quick test_catalog_defaults;
    Alcotest.test_case "key-FK estimate" `Quick test_cardinality_key_fk;
    Alcotest.test_case "filter estimate" `Quick test_cardinality_filter;
    Alcotest.test_case "observed selectivity overrides" `Quick
      test_cardinality_observed_override;
    Alcotest.test_case "multiplicative flags" `Quick
      test_cardinality_multiplicative_flag;
    Alcotest.test_case "filter selectivity constants" `Quick
      test_filter_selectivity;
    Alcotest.test_case "optimizer prefers small joins" `Quick
      test_optimizer_orders_by_size;
    Alcotest.test_case "no cross products" `Quick test_optimizer_no_cross_products;
    Alcotest.test_case "alternatives" `Quick test_alternatives;
    Alcotest.test_case "preagg point detection" `Quick test_preagg_point;
    Alcotest.test_case "optimize with preagg" `Quick test_optimize_with_preagg;
    Alcotest.test_case "pessimal plan" `Quick test_pessimal;
    Alcotest.test_case "final cardinality learning" `Quick
      test_final_cardinality_learning;
    qtest optimizer_plans_agree ]
