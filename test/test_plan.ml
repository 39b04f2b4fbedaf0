open Adp_relation
open Adp_exec
open Adp_storage
open Helpers

let schema_of_tbl tables name = List.assoc name tables

let push_all plan src tuples =
  List.concat_map (fun t -> Plan.push plan ~source:src t) tuples

let two_rels () =
  let r = [ [| vi 1; vi 10 |]; [| vi 2; vi 20 |]; [| vi 2; vi 21 |] ] in
  let s = [ [| vi 2; vi 100 |]; [| vi 3; vi 300 |]; [| vi 2; vi 200 |] ] in
  r, s

let tables =
  [ "r", keyed_schema "r"; "s", keyed_schema "s"; "u", keyed_schema "u" ]

let test_single_join () =
  let r, s = two_rels () in
  let ctx = Ctx.create () in
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let plan = instantiate ctx spec ~schema_of:(schema_of_tbl tables) in
  let outs =
    push_all plan "r" r @ push_all plan "s" s @ Plan.flush plan
  in
  let want = oracle_join r s ~on:[ 0, 0 ] in
  check_bag "join = oracle" outs want;
  Alcotest.(check int) "4 matches" 4 (List.length outs)

let test_interleaved_arrival () =
  (* Symmetric join: outputs identical regardless of arrival interleaving. *)
  let r, s = two_rels () in
  let ctx = Ctx.create () in
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let plan = instantiate ctx spec ~schema_of:(schema_of_tbl tables) in
  let outs = ref [] in
  List.iteri
    (fun i (rt, st) ->
      ignore i;
      outs := !outs @ Plan.push plan ~source:"r" rt;
      outs := !outs @ Plan.push plan ~source:"s" st)
    (List.combine r s);
  check_bag "interleaved = oracle" !outs (oracle_join r s ~on:[ 0, 0 ])

let test_filter_pushdown () =
  let r, s = two_rels () in
  let ctx = Ctx.create () in
  let spec =
    Plan.join
      (Plan.scan ~filter:(Predicate.eq "r.k" (vi 2)) "r")
      (Plan.scan "s") ~on:[ "r.k", "s.k" ]
  in
  let plan = instantiate ctx spec ~schema_of:(schema_of_tbl tables) in
  let outs = push_all plan "r" r @ push_all plan "s" s in
  let want =
    oracle_join (List.filter (fun t -> Value.equal t.(0) (vi 2)) r) s
      ~on:[ 0, 0 ]
  in
  check_bag "filtered join" outs want;
  (* The dropped tuple is counted as seen but not in the partition. *)
  let leaf =
    List.find
      (fun (l : Plan.leaf_count) -> l.source = "r")
      (Plan.leaf_counts plan)
  in
  Alcotest.(check int) "seen all" 3 leaf.seen;
  Alcotest.(check int) "passed" 2 leaf.passed;
  let _, part, _ = Option.get (Plan.leaf_partition plan "r") in
  Alcotest.(check int) "buffered only passing" 2 (Row_log.view_length part);
  Alcotest.(check bool) "no leaf for an unread source" true
    (Plan.leaf_partition plan "u" = None)

let three_way_spec () =
  Plan.join
    (Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ])
    (Plan.scan "u")
    ~on:[ "s.p", "u.k" ]

let test_three_way () =
  let r = [ [| vi 1; vi 5 |]; [| vi 2; vi 5 |] ] in
  let s = [ [| vi 1; vi 7 |]; [| vi 2; vi 8 |] ] in
  let u = [ [| vi 7; vi 70 |]; [| vi 8; vi 80 |]; [| vi 7; vi 71 |] ] in
  let ctx = Ctx.create () in
  let plan =
    instantiate ctx (three_way_spec ()) ~schema_of:(schema_of_tbl tables)
  in
  let outs =
    push_all plan "u" u @ push_all plan "r" r @ push_all plan "s" s
  in
  let rs = oracle_join r s ~on:[ 0, 0 ] in
  let want = oracle_join rs u ~on:[ 3, 0 ] in
  check_bag "three way" outs want

let test_signatures_shape_invariant () =
  let a =
    Plan.join
      (Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ])
      (Plan.scan "u") ~on:[ "s.p", "u.k" ]
  in
  let b =
    Plan.join (Plan.scan "r")
      (Plan.join (Plan.scan "s") (Plan.scan "u") ~on:[ "s.p", "u.k" ])
      ~on:[ "r.k", "s.k" ]
  in
  Alcotest.(check string) "same signature" (Plan.signature_of a)
    (Plan.signature_of b);
  let filtered =
    Plan.join
      (Plan.scan ~filter:(Predicate.eq "r.k" (vi 1)) "r")
      (Plan.scan "s") ~on:[ "r.k", "s.k" ]
  in
  Alcotest.(check bool) "filter changes signature" true
    (Plan.signature_of filtered
    <> Plan.signature_of
         (Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ]))

let test_join_infos_and_node_results () =
  let r = [ [| vi 1; vi 5 |]; [| vi 2; vi 5 |] ] in
  let s = [ [| vi 1; vi 7 |] ] in
  let u = [ [| vi 7; vi 70 |] ] in
  let ctx = Ctx.create () in
  let plan =
    instantiate ctx (three_way_spec ()) ~schema_of:(schema_of_tbl tables)
  in
  ignore (push_all plan "r" r);
  ignore (push_all plan "s" s);
  ignore (push_all plan "u" u);
  let infos = Plan.join_infos plan in
  Alcotest.(check int) "two joins" 2 (List.length infos);
  let inner = List.hd infos in
  Alcotest.(check int) "inner out" 1 inner.Plan.out_count;
  Alcotest.(check (list string)) "inner rels" [ "r"; "s" ] inner.Plan.relations;
  let root = List.nth infos 1 in
  Alcotest.(check int) "root complexity" 3 root.Plan.complexity;
  let results = Plan.node_results plan in
  Alcotest.(check int) "results per join" 2 (List.length results);
  let _, _, root_tuples, _ = List.nth results 1 in
  Alcotest.(check int) "root materialized" 1 (Row_log.view_length root_tuples)

(* Three joins over four sources, one of them read through a windowed
   pre-aggregation; every count below is worked out by hand from the
   arrival order. *)
let test_routed_push_counts () =
  let schema_of = function
    | "w" -> keyed_schema "w"
    | name -> schema_of_tbl tables name
  in
  let r_s = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let agg_u =
    Plan.preagg ~mode:(Windowed { initial = 2; max_window = 2 })
      ~group_cols:[ "u.k" ] ~aggs:[ Aggregate.count_all ~name:"c" ]
      (Plan.scan "u")
  in
  let r_s_u = Plan.join r_s agg_u ~on:[ "s.p", "u.k" ] in
  let w = Plan.scan ~filter:(Predicate.eq "w.k" (vi 5)) "w" in
  let spec = Plan.join r_s_u w ~on:[ "r.p", "w.k" ] in
  let ctx = Ctx.create () in
  let plan = instantiate ctx spec ~schema_of in
  let t l = Array.of_list (List.map vi l) in
  let outs =
    List.concat_map
      (fun (src, rows) -> push_all plan src (List.map t rows))
      [ "u", [ [ 7; 70 ]; [ 7; 71 ]; [ 8; 80 ] ];
        "r", [ [ 1; 5 ]; [ 2; 6 ] ];
        "s", [ [ 1; 7 ]; [ 2; 8 ]; [ 1; 8 ] ];
        "w", [ [ 5; 50 ]; [ 6; 60 ]; [ 5; 51 ] ] ]
  in
  (* u's window of two emits (7, count 2) and keeps 8 buffered, so only
     s.p = 7 finds a partner, and w's filter drops w.k = 6. *)
  let root_rows =
    [ t [ 1; 5; 1; 7; 7; 2; 5; 50 ]; t [ 1; 5; 1; 7; 7; 2; 5; 51 ] ]
  in
  let rows = Alcotest.(list (array (of_pp Value.pp))) in
  Alcotest.check rows "root outputs, in push order" root_rows outs;
  Alcotest.(check (list (pair string int)))
    "node results: signature, complexity"
    [ Plan.signature_of r_s, 2; Plan.signature_of r_s_u, 3;
      Plan.signature_of spec, 4 ]
    (List.map (fun (sg, _, _, c) -> sg, c) (Plan.node_results plan));
  Alcotest.check (Alcotest.list rows) "node results: tuples, oldest first"
    [ [ t [ 1; 5; 1; 7 ]; t [ 2; 6; 2; 8 ]; t [ 1; 5; 1; 8 ] ];
      [ t [ 1; 5; 1; 7; 7; 2 ] ]; root_rows ]
    (List.map
       (fun (_, _, tuples, _) -> Row_log.view_to_list tuples)
       (Plan.node_results plan));
  Alcotest.(check (list (triple int int int)))
    "join infos: out, left out, right out"
    [ 3, 2, 3; 1, 3, 1; 2, 1, 2 ]
    (List.map
       (fun (i : Plan.join_info) -> i.out_count, i.left_out, i.right_out)
       (Plan.join_infos plan));
  Alcotest.(check (list (triple string int int)))
    "leaf counts: source, seen, passed"
    [ "r", 2, 2; "s", 3, 3; "u", 3, 1; "w", 3, 2 ]
    (List.map
       (fun (l : Plan.leaf_count) -> l.source, l.seen, l.passed)
       (Plan.leaf_counts plan));
  Alcotest.(check (list (triple int int int)))
    "preagg: in, out, window" [ 3, 1, 2 ]
    (List.map (fun (_, i, o, w) -> i, o, w) (Plan.preagg_stats plan));
  let node_counter name node =
    let module Json = Adp_obs.Json in
    let label = Format.asprintf "%a" Plan.pp_spec node in
    let field k get e = Option.bind (Json.member k e) get in
    List.find_map
      (fun e ->
        if field "name" Json.get_str e = Some name
           && field "type" Json.get_str e = Some "counter"
           && field "labels" (field "node" Json.get_str) e = Some label
        then Option.map int_of_float (field "value" Json.get_num e)
        else None)
      (Json.req (Adp_obs.Metrics.to_json ctx.Ctx.metrics) "metrics"
         Json.get_list)
  in
  Alcotest.(check (list (pair (option int) (option int))))
    "node counters: in, out"
    (List.map
       (fun (i, o) -> Some i, Some o)
       [ 2, 2; 3, 3; 5, 3; 3, 3; 3, 1; 4, 1; 3, 2; 3, 2 ])
    (List.map
       (fun node ->
         ( node_counter "adp_node_tuples_in_total" node,
           node_counter "adp_node_tuples_out_total" node ))
       [ Plan.scan "r"; Plan.scan "s"; r_s; Plan.scan "u"; agg_u; r_s_u; w;
         spec ])

let test_duplicate_source_rejected () =
  let ctx = Ctx.create () in
  let spec = Plan.join (Plan.scan "r") (Plan.scan "r") ~on:[ "r.k", "r.k" ] in
  (try
     ignore (instantiate ctx spec ~schema_of:(schema_of_tbl tables));
     Alcotest.fail "should reject duplicate source"
   with Invalid_argument _ -> ())

let test_unknown_source_push () =
  let ctx = Ctx.create () in
  let plan =
    instantiate ctx (Plan.scan "r") ~schema_of:(schema_of_tbl tables)
  in
  (try
     ignore (Plan.push plan ~source:"nope" [| vi 1; vi 2 |]);
     Alcotest.fail "should reject unknown source"
   with Invalid_argument _ -> ())

let test_costs_charged () =
  let r, s = two_rels () in
  let ctx = Ctx.create () in
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let plan = instantiate ctx spec ~schema_of:(schema_of_tbl tables) in
  ignore (push_all plan "r" r);
  ignore (push_all plan "s" s);
  Alcotest.(check bool) "cpu charged" true (Clock.cpu ctx.Ctx.clock > 0.0)

let test_record_outputs_disabled () =
  (* Single-phase executions skip intermediate materialization: results
     and counters stay correct, node_results just comes back empty. *)
  let r, s = two_rels () in
  let ctx = Ctx.create () in
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let plan =
    instantiate ~record_outputs:false ctx spec
      ~schema_of:(schema_of_tbl tables)
  in
  let outs = push_all plan "r" r @ push_all plan "s" s in
  check_bag "outputs unaffected" outs (oracle_join r s ~on:[ 0, 0 ]);
  (match Plan.join_infos plan with
   | [ info ] -> Alcotest.(check int) "counters kept" 4 info.Plan.out_count
   | _ -> Alcotest.fail "expected one join");
  (match Plan.node_results plan with
   | [ (_, _, tuples, _) ] ->
     Alcotest.(check int) "nothing materialized" 0 (Row_log.view_length tuples)
   | _ -> Alcotest.fail "expected one node")

let test_memory_pressure () =
  let r = List.init 100 (fun i -> [| vi i; vi i |]) in
  let s = List.init 100 (fun i -> [| vi i; vi i |]) in
  let ctx = Ctx.create () in
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let plan = instantiate ctx spec ~schema_of:(schema_of_tbl tables) in
  ignore (push_all plan "r" r);
  ignore (push_all plan "s" s);
  Alcotest.(check int) "memory in use" 200 (Plan.memory_in_use plan);
  let cpu_before = Clock.cpu ctx.Ctx.clock in
  let swapped = Plan.apply_memory_pressure plan ~budget:100 in
  Alcotest.(check bool) "something swapped" true (List.length swapped >= 1);
  (* The returned descriptors name the paged-out node states. *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        ("descriptor names a build side: " ^ d)
        true
        (let has suffix =
           String.length d >= String.length suffix
           && String.sub d (String.length d - String.length suffix)
                (String.length suffix)
              = suffix
         in
         has "#build-left" || has "#build-right"))
    swapped;
  Alcotest.(check bool) "resident within budget" true
    (Plan.memory_in_use plan <= 100);
  (* Probing a swapped structure pays the I/O penalty but stays correct. *)
  let outs = Plan.push plan ~source:"r" [| vi 5; vi 99 |] in
  Alcotest.(check int) "swapped probe still correct" 1 (List.length outs);
  Alcotest.(check bool) "I/O penalty charged" true
    (Clock.cpu ctx.Ctx.clock -. cpu_before
     >= ctx.Ctx.costs.Cost_model.swap_penalty);
  (* A generous budget brings everything back. *)
  let swapped = Plan.apply_memory_pressure plan ~budget:10_000 in
  Alcotest.(check int) "all resident again" 0 (List.length swapped)

let join_vs_oracle =
  QCheck2.Test.make ~name:"symmetric join tree = oracle (qcheck)" ~count:80
    QCheck2.Gen.(
      pair
        (gen_keyed_tuples ~key_range:8 ~max_len:40)
        (gen_keyed_tuples ~key_range:8 ~max_len:40))
    (fun (r, s) ->
      let ctx = Ctx.create () in
      let spec =
        Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ]
      in
      let plan = instantiate ctx spec ~schema_of:(schema_of_tbl tables) in
      let outs = push_all plan "r" r @ push_all plan "s" s in
      same_bag outs (oracle_join r s ~on:[ 0, 0 ]))

(* The monitor reads each leaf's pass count from the plan's counters; it
   must equal the buffered partition stitch-up combines, at every poll
   and across a phase switch, for a filtered scan and for a
   pre-aggregation over a scan. *)
let test_leaf_counts_match_partitions () =
  let rel name n =
    Relation.of_list (keyed_schema name)
      (List.init n (fun i -> [| vi (i * 7 mod 13); vi i |]))
  in
  let sources =
    [ Source.create ~name:"r" (rel "r" 300) Source.Local;
      Source.create ~name:"s" (rel "s" 200) Source.Local;
      Source.create ~name:"u" (rel "u" 400) Source.Local ]
  in
  let r = Plan.scan ~filter:(Predicate.gt "r.k" (vi 3)) "r" in
  let u =
    Plan.preagg ~mode:(Plan.Windowed { initial = 4; max_window = 64 })
      ~group_cols:[ "u.k" ] ~aggs:[ Aggregate.count_all ~name:"n" ]
      (Plan.scan "u")
  in
  let phase0 =
    Plan.join (Plan.join r (Plan.scan "s") ~on:[ "r.k", "s.k" ]) u
      ~on:[ "s.k", "u.k" ]
  and phase1 =
    Plan.join r (Plan.join (Plan.scan "s") u ~on:[ "s.k", "u.k" ])
      ~on:[ "r.k", "s.k" ]
  in
  let ctx = Ctx.create () in
  let check_plan plan =
    let counts = Plan.leaf_counts plan in
    Alcotest.(check (list string)) "leaves in plan order" [ "r"; "s"; "u" ]
      (List.map (fun (l : Plan.leaf_count) -> l.source) counts);
    List.iter
      (fun (l : Plan.leaf_count) ->
        let _, tuples, signature =
          Option.get (Plan.leaf_partition plan l.source)
        in
        Alcotest.(check string) "effective leaf" signature l.signature;
        Alcotest.(check int) (l.source ^ " passed")
          (Row_log.view_length tuples) l.passed)
      counts
  in
  let polls = ref 0 in
  let run spec ~switch_at =
    let plan = instantiate ctx spec ~schema_of:keyed_schema in
    let consume src t = ignore (Plan.push plan ~source:(Source.name src) t) in
    let poll () =
      incr polls;
      check_plan plan;
      if !polls = switch_at then `Switch else `Continue
    in
    let outcome = Driver.run ctx ~sources ~consume ~poll:(50.0, poll) () in
    ignore (Plan.flush plan);
    check_plan plan;
    plan, outcome
  in
  let first, switched = run phase0 ~switch_at:3 in
  Alcotest.(check bool) "phase 0 switched" true (switched = Driver.Switched);
  let u_passed plan =
    (List.find (fun (l : Plan.leaf_count) -> l.source = "u")
       (Plan.leaf_counts plan)).passed
  in
  Alcotest.(check bool) "pre-aggregated leaf emitted" true (u_passed first > 0);
  let _, finished = run phase1 ~switch_at:0 in
  Alcotest.(check bool) "phase 1 drained" true (finished = Driver.Exhausted);
  Alcotest.(check bool) "polled in both phases" true (!polls > 4)

let suite =
  [ Alcotest.test_case "single join" `Quick test_single_join;
    Alcotest.test_case "interleaved arrival" `Quick test_interleaved_arrival;
    Alcotest.test_case "filter pushdown" `Quick test_filter_pushdown;
    Alcotest.test_case "three-way join" `Quick test_three_way;
    Alcotest.test_case "shape-invariant signatures" `Quick
      test_signatures_shape_invariant;
    Alcotest.test_case "join infos / node results" `Quick
      test_join_infos_and_node_results;
    Alcotest.test_case "duplicate source rejected" `Quick
      test_duplicate_source_rejected;
    Alcotest.test_case "unknown source rejected" `Quick test_unknown_source_push;
    Alcotest.test_case "routed push: outputs, results and counters" `Quick
      test_routed_push_counts;
    Alcotest.test_case "costs charged" `Quick test_costs_charged;
    Alcotest.test_case "memory pressure" `Quick test_memory_pressure;
    Alcotest.test_case "record_outputs disabled" `Quick
      test_record_outputs_disabled;
    Alcotest.test_case "leaf counts match partitions at every poll" `Quick
      test_leaf_counts_match_partitions;
    qtest join_vs_oracle ]
