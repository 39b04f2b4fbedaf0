(* Windowed pre-aggregation (§6): correctness through the plan tree, window
   adaptation behaviour, and pseudogroup pass-through. *)

open Adp_relation
open Adp_exec
open Helpers

let tables = [ "d", Schema.make [ "d.g"; "d.v" ]; "k", keyed_schema "k" ]
let schema_of name = List.assoc name tables

let aggs = [ Aggregate.sum ~name:"s" (Expr.col "d.v") ]

let preagg_plan mode =
  Plan.preagg ~mode ~group_cols:[ "d.g" ] ~aggs (Plan.scan "d")

let run_preagg mode tuples =
  let ctx = Ctx.create () in
  let plan = instantiate ctx (preagg_plan mode) ~schema_of in
  (* Bind pushes before flushing: [@] evaluates right to left. *)
  let streamed = List.concat_map (fun t -> Plan.push plan ~source:"d" t) tuples in
  let outs = streamed @ Plan.flush plan in
  plan, outs

let final_sum_by_group outs out_schema =
  let ctx = Ctx.create () in
  let agg =
    Agg.create ctx ~group_cols:[ "d.g" ] ~aggs ~input:Agg.Partial out_schema
  in
  List.iter (Agg.add agg) outs;
  Agg.result agg

let direct_sum_by_group tuples =
  let ctx = Ctx.create () in
  let agg =
    Agg.create ctx ~group_cols:[ "d.g" ] ~aggs ~input:Agg.Raw
      (schema_of "d")
  in
  List.iter (Agg.add agg) tuples;
  Agg.result agg

let modes =
  [ "windowed", Plan.Windowed { initial = 4; max_window = 64 };
    "traditional", Plan.Traditional;
    "pseudogroup", Plan.Pseudogroup;
    "punctuated", Plan.Punctuated ]

let test_equivalence_all_modes () =
  let rng = Adp_datagen.Prng.create 2 in
  let tuples =
    List.init 500 (fun _ ->
        [| vi (Adp_datagen.Prng.int rng 20); vi (Adp_datagen.Prng.int rng 100) |])
  in
  let want = direct_sum_by_group tuples in
  List.iter
    (fun (name, mode) ->
      let plan, outs = run_preagg mode tuples in
      let got = final_sum_by_group outs (Plan.schema plan) in
      Alcotest.(check bool)
        (name ^ " preagg + final = single agg")
        true
        (Relation.equal_bag got want))
    modes

let test_window_grows_on_collapse () =
  (* Single group: every window collapses to one tuple — window must grow. *)
  let tuples = List.init 300 (fun i -> [| vi 7; vi i |]) in
  let plan, _ = run_preagg (Plan.Windowed { initial = 4; max_window = 1024 }) tuples in
  match Plan.preagg_stats plan with
  | [ (_, in_total, out_total, window) ] ->
    Alcotest.(check int) "saw all input" 300 in_total;
    Alcotest.(check bool) "collapsed heavily" true (out_total < 100);
    Alcotest.(check bool) "window grew" true (window > 4)
  | _ -> Alcotest.fail "expected one preagg"

let test_window_shrinks_on_unique () =
  (* All-distinct groups: pre-aggregation is useless — window must shrink
     to the pseudogroup pass-through size of 1. *)
  let tuples = List.init 300 (fun i -> [| vi i; vi i |]) in
  let plan, outs = run_preagg (Plan.Windowed { initial = 64; max_window = 1024 }) tuples in
  Alcotest.(check int) "pass-through emits all" 300 (List.length outs);
  match Plan.preagg_stats plan with
  | [ (_, _, _, window) ] ->
    Alcotest.(check int) "window shrank to 1" 1 window
  | _ -> Alcotest.fail "expected one preagg"

let test_traditional_blocks () =
  let tuples = List.init 100 (fun i -> [| vi (i mod 5); vi i |]) in
  let ctx = Ctx.create () in
  let plan = instantiate ctx (preagg_plan Plan.Traditional) ~schema_of in
  let during =
    List.concat_map (fun t -> Plan.push plan ~source:"d" t) tuples
  in
  Alcotest.(check int) "nothing emitted while streaming" 0 (List.length during);
  let at_flush = Plan.flush plan in
  Alcotest.(check int) "everything at flush" 5 (List.length at_flush)

let test_pseudogroup_streams () =
  let tuples = List.init 10 (fun i -> [| vi (i mod 5); vi i |]) in
  let ctx = Ctx.create () in
  let plan = instantiate ctx (preagg_plan Plan.Pseudogroup) ~schema_of in
  let during =
    List.concat_map (fun t -> Plan.push plan ~source:"d" t) tuples
  in
  Alcotest.(check int) "one partial per input" 10 (List.length during)

let test_preagg_under_join () =
  (* γ[d.g]sum(d.v) (d) ⋈ k on d.g = k.k : early aggregation before a join;
     final agg coalesces. *)
  let d = List.init 200 (fun i -> [| vi (i mod 4); vi 1 |]) in
  let k = List.init 4 (fun i -> [| vi i; vi (100 + i) |]) in
  let ctx = Ctx.create () in
  let spec =
    Plan.join
      (preagg_plan (Plan.Windowed { initial = 8; max_window = 256 }))
      (Plan.scan "k") ~on:[ "d.g", "k.k" ]
  in
  let plan = instantiate ctx spec ~schema_of in
  let from_d = List.concat_map (fun t -> Plan.push plan ~source:"d" t) d in
  let from_k = List.concat_map (fun t -> Plan.push plan ~source:"k" t) k in
  let outs = from_d @ from_k @ Plan.flush plan in
  let agg_ctx = Ctx.create () in
  let agg =
    Agg.create agg_ctx ~group_cols:[ "d.g" ] ~aggs ~input:Agg.Partial
      (Plan.schema plan)
  in
  List.iter (Agg.add agg) outs;
  let got = Agg.result agg in
  (* Each group has 50 tuples of v=1. *)
  check_bag "preagg under join"
    (Relation.to_list got)
    [ [| vi 0; vi 50 |]; [| vi 1; vi 50 |]; [| vi 2; vi 50 |];
      [| vi 3; vi 50 |] ]

let test_punctuated_on_sorted () =
  (* Group-sorted input: one partial per group, emitted at each boundary. *)
  let tuples =
    List.concat_map
      (fun g -> List.init 10 (fun i -> [| vi g; vi i |]))
      [ 1; 2; 3; 4 ]
  in
  let ctx = Ctx.create () in
  let plan = instantiate ctx (preagg_plan Plan.Punctuated) ~schema_of in
  let streamed =
    List.concat_map (fun t -> Plan.push plan ~source:"d" t) tuples
  in
  (* Three boundaries crossed while streaming; the last group at flush. *)
  Alcotest.(check int) "streaming emissions" 3 (List.length streamed);
  let final = Plan.flush plan in
  Alcotest.(check int) "last group at flush" 1 (List.length final);
  let got = final_sum_by_group (streamed @ final) (Plan.schema plan) in
  Alcotest.(check bool) "punctuated equals direct" true
    (Relation.equal_bag got (direct_sum_by_group tuples))

let test_punctuated_on_unsorted_still_correct () =
  let rng = Adp_datagen.Prng.create 4 in
  let tuples =
    List.init 200 (fun _ ->
        [| vi (Adp_datagen.Prng.int rng 5); vi (Adp_datagen.Prng.int rng 10) |])
  in
  let plan, outs = run_preagg Plan.Punctuated tuples in
  let got = final_sum_by_group outs (Plan.schema plan) in
  Alcotest.(check bool) "duplicated partials coalesce" true
    (Relation.equal_bag got (direct_sum_by_group tuples));
  (* Unsorted input punctuates on nearly every tuple — many partials. *)
  Alcotest.(check bool) "degrades to many partials" true (List.length outs > 100)

let preagg_union_prop =
  QCheck2.Test.make
    ~name:"windowed preagg + coalesce = single aggregation (qcheck)" ~count:60
    QCheck2.Gen.(
      pair (int_range 1 64)
        (list_size (int_bound 200) (pair (int_bound 6) (int_bound 50))))
    (fun (w, pairs) ->
      let tuples = List.map (fun (g, v) -> [| vi g; vi v |]) pairs in
      let plan, outs =
        run_preagg (Plan.Windowed { initial = w; max_window = 512 }) tuples
      in
      let got = final_sum_by_group outs (Plan.schema plan) in
      let want = direct_sum_by_group tuples in
      Relation.equal_bag got want)

(* GROUP BY equality, written out apart from the engine: NULL with NULL,
   numbers by value (Int 3 with Float 3.0, 0.0 with -0.0), NaN with
   NaN. *)
let group_equal a b =
  match a, b with
  | Value.Null, Value.Null -> true
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    let x = Value.to_float a and y = Value.to_float b in
    x = y || (Float.is_nan x && Float.is_nan y)
  | Value.Str x, Value.Str y -> String.equal x y
  | _, _ -> false

(* The same constructor and, for a float, the same bits: a group's key
   must be its first-seen value, not merely an equal one. *)
let identical a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Float _, _ | _, Value.Float _ -> false
  | _, _ -> Value.compare a b = 0

let grouping_schema = Schema.make [ "e.g"; "e.h"; "e.v" ]

let grouping_aggs =
  [ Aggregate.sum ~name:"s" (Expr.col "e.v"); Aggregate.count_all ~name:"c" ]

(* Naive grouping over an association list: each group's first-seen
   key, sum and count, in first-seen order. *)
let reference_groups width tuples =
  let key t = Array.sub t 0 width in
  let groups =
    List.fold_left
      (fun groups t ->
        let k = key t and v = match t.(2) with Value.Int v -> v | _ -> 0 in
        let same (k', _) = Array.for_all2 group_equal k k' in
        if List.exists same groups then
          List.map
            (fun ((k', (s, c)) as g) -> if same g then (k', (s + v, c + 1)) else g)
            groups
        else groups @ [ (k, (v, 1)) ])
      [] tuples
  in
  List.map
    (fun (k, (s, c)) -> Array.append k [| Value.Int s; Value.Int c |])
    groups

let final_groups ~input schema group_cols tuples =
  let agg =
    Agg.create (Ctx.create ()) ~group_cols ~aggs:grouping_aggs ~input schema
  in
  List.iter (Agg.add agg) tuples;
  Relation.to_list (Agg.result agg)

let grouping_prop =
  let pool =
    [| Value.Null; vi 3; vf 3.0; vf Float.nan; vf 0.0; vf (-0.0); vi 0;
       vs "a"; vi 1 |]
  in
  let n = Array.length pool in
  QCheck2.Test.make
    ~name:"Agg and every pre-aggregation mode group by GROUP BY equality (qcheck)"
    ~count:200
    QCheck2.Gen.(
      triple bool (int_range 1 8)
        (list_size (int_bound 60)
           (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 20))))
    (fun (two, w, rows) ->
      let width = if two then 2 else 1 in
      let group_cols = if two then [ "e.g"; "e.h" ] else [ "e.g" ] in
      let tuples =
        List.map (fun (g, h, v) -> [| pool.(g); pool.(h); vi v |]) rows
      in
      let want = reference_groups width tuples in
      let same got =
        List.length got = List.length want
        && List.for_all2 (Array.for_all2 identical) got want
      in
      let preagg mode =
        let ctx = Ctx.create () in
        let plan =
          instantiate ctx
            (Plan.preagg ~mode ~group_cols ~aggs:grouping_aggs (Plan.scan "e"))
            ~schema_of:(fun _ -> grouping_schema)
        in
        let streamed =
          List.concat_map (fun t -> Plan.push plan ~source:"e" t) tuples
        in
        final_groups ~input:Agg.Partial (Plan.schema plan) group_cols
          (streamed @ Plan.flush plan)
      in
      same (final_groups ~input:Agg.Raw grouping_schema group_cols tuples)
      && List.for_all
           (fun mode -> same (preagg mode))
           [ Plan.Windowed { initial = w; max_window = 16 }; Plan.Traditional;
             Plan.Pseudogroup; Plan.Punctuated ])

let suite =
  [ Alcotest.test_case "equivalence across modes" `Quick
      test_equivalence_all_modes;
    Alcotest.test_case "window grows on collapse" `Quick
      test_window_grows_on_collapse;
    Alcotest.test_case "window shrinks to pass-through" `Quick
      test_window_shrinks_on_unique;
    Alcotest.test_case "traditional blocks until flush" `Quick
      test_traditional_blocks;
    Alcotest.test_case "pseudogroup streams" `Quick test_pseudogroup_streams;
    Alcotest.test_case "preagg under join" `Quick test_preagg_under_join;
    Alcotest.test_case "punctuated on sorted input" `Quick
      test_punctuated_on_sorted;
    Alcotest.test_case "punctuated safe on unsorted" `Quick
      test_punctuated_on_unsorted_still_correct;
    qtest preagg_union_prop;
    qtest grouping_prop ]
