(* The fundamental ADP identity (§2.3): executing phase plans over disjoint
   regions of the sources plus the stitch-up expression yields exactly the
   single-plan join — no missing answers, no duplicates. *)

open Adp_relation
open Adp_exec
open Adp_storage
open Adp_optimizer
open Adp_core
open Helpers

let tables =
  [ "r", keyed_schema "r"; "s", Schema.make [ "s.k"; "s.p" ];
    "u", keyed_schema "u" ]

let schema_of name = List.assoc name tables

(* Chain query r.k = s.k, s.p = u.k with no aggregation: the sink collects
   raw join results. *)
let chain_query =
  { Logical.sources =
      [ { Logical.name = "r"; filter = Predicate.tt };
        { Logical.name = "s"; filter = Predicate.tt };
        { Logical.name = "u"; filter = Predicate.tt } ];
    join_preds = [ "r.k", "s.k"; "s.p", "u.k" ];
    group_cols = []; aggs = []; projection = [] }

let left_deep =
  Plan.join
    (Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ])
    (Plan.scan "u") ~on:[ "s.p", "u.k" ]

let right_deep =
  Plan.join (Plan.scan "r")
    (Plan.join (Plan.scan "s") (Plan.scan "u") ~on:[ "s.p", "u.k" ])
    ~on:[ "r.k", "s.k" ]

(* [left_deep] with the inner join's inputs swapped: same relation sets,
   columns laid out (s, r, u). *)
let swapped_left_deep =
  Plan.join
    (Plan.join (Plan.scan "s") (Plan.scan "r") ~on:[ "s.k", "r.k" ])
    (Plan.scan "u") ~on:[ "s.p", "u.k" ]

(* Split a list into exactly n contiguous segments (some possibly empty). *)
let segments n l =
  let arr = Array.of_list l in
  let len = Array.length arr in
  List.init n (fun i ->
      let lo = i * len / n and hi = (i + 1) * len / n in
      Array.to_list (Array.sub arr lo (hi - lo)))

(* Run [shapes] as successive phases over segmented inputs, then stitch. *)
let run_phased ?(query = chain_query) ?(ctx = Ctx.create ()) ?(reuse = true)
    ~shapes ~stitch_tree ~r ~s ~u () =
  let n = List.length shapes in
  let rsegs = segments n r and ssegs = segments n s and usegs = segments n u in
  let phases =
    List.mapi
      (fun i spec ->
        Phase.create ~id:i ctx spec ~schema_of ~keep:(Logical.keep query))
      shapes
  in
  let sink =
    Sink.create ctx query
      ~canonical:(Plan.schema (List.hd phases).Phase.plan)
  in
  List.iteri
    (fun i ph ->
      let feed src tuples =
        List.iter
          (fun t ->
            let outs = Plan.push ph.Phase.plan ~source:src t in
            Sink.feed sink ~from:(Plan.schema ph.Phase.plan) outs)
          tuples
      in
      feed "r" (List.nth rsegs i);
      feed "s" (List.nth ssegs i);
      feed "u" (List.nth usegs i);
      Sink.feed sink ~from:(Plan.schema ph.Phase.plan) (Plan.flush ph.Phase.plan))
    phases;
  let stats =
    Stitchup.run ctx query ~join_tree:stitch_tree ~phases ~reuse ~sink
  in
  Sink.result sink, stats

let oracle ~r ~s ~u =
  oracle_join (oracle_join r s ~on:[ 0, 0 ]) u ~on:[ 3, 0 ]

let gen_inputs seed size =
  let rng = Adp_datagen.Prng.create seed in
  let mk n krange =
    List.init n (fun _ ->
        [| vi (Adp_datagen.Prng.int rng krange);
           vi (Adp_datagen.Prng.int rng krange) |])
  in
  mk size 6, mk size 6, mk size 6

let test_two_phases_same_shape () =
  let r, s, u = gen_inputs 1 30 in
  let got, stats =
    run_phased ~shapes:[ left_deep; left_deep ] ~stitch_tree:left_deep ~r ~s
      ~u ()
  in
  check_bag "phases + stitchup = oracle" (Relation.to_list got) (oracle ~r ~s ~u);
  Alcotest.(check int) "combos" (8 - 2) stats.Stitchup.combos_possible;
  Alcotest.(check bool) "stitch-up reused inner results" true
    (stats.Stitchup.reused > 0)

let test_two_phases_different_shapes () =
  let r, s, u = gen_inputs 2 30 in
  let got, _ =
    run_phased ~shapes:[ left_deep; right_deep ] ~stitch_tree:right_deep ~r
      ~s ~u ()
  in
  check_bag "different shapes stitch correctly" (Relation.to_list got)
    (oracle ~r ~s ~u)

let test_three_phases () =
  let r, s, u = gen_inputs 3 40 in
  let got, stats =
    run_phased
      ~shapes:[ left_deep; right_deep; left_deep ]
      ~stitch_tree:left_deep ~r ~s ~u ()
  in
  check_bag "three phases" (Relation.to_list got) (oracle ~r ~s ~u);
  Alcotest.(check int) "combos 3^3-3" 24 stats.Stitchup.combos_possible

let test_single_phase_no_stitch () =
  let r, s, u = gen_inputs 4 20 in
  let got, stats =
    run_phased ~shapes:[ left_deep ] ~stitch_tree:left_deep ~r ~s ~u ()
  in
  check_bag "single phase complete" (Relation.to_list got) (oracle ~r ~s ~u);
  Alcotest.(check int) "no stitch work" 0 stats.Stitchup.combos_possible;
  Alcotest.(check int) "no stitch output" 0 stats.Stitchup.output

let test_empty_phase_segments () =
  (* A phase that read nothing (immediate switch) must not break stitch-up. *)
  (* 2 tuples over 4 phases leaves some segments empty. *)
  let r, s, u = gen_inputs 5 2 in
  let got, _ =
    run_phased
      ~shapes:[ left_deep; right_deep; right_deep; left_deep ]
      ~stitch_tree:left_deep ~r ~s ~u ()
  in
  check_bag "empty segments ok" (Relation.to_list got) (oracle ~r ~s ~u)

(* Every phase's strictly intermediate join tuples are either reused or
   discarded, counted against the oracle's join sizes per segment. *)
let test_registry_reuse_accounting () =
  let r, s, u = gen_inputs 6 40 in
  let size a b ~on = List.length (oracle_join a b ~on) in
  let rs i = size (List.nth (segments 2 r) i) (List.nth (segments 2 s) i) ~on:[ 0, 0 ]
  and su i = size (List.nth (segments 2 s) i) (List.nth (segments 2 u) i) ~on:[ 1, 0 ] in
  let counts ?reuse shapes =
    let _, stats =
      run_phased ?reuse ~shapes ~stitch_tree:left_deep ~r ~s ~u ()
    in
    [ stats.Stitchup.reused; stats.Stitchup.discarded ]
  in
  (* Same shape everywhere: every inner uniform (r⋈s)^p is reused. *)
  Alcotest.(check (list int)) "same shape: all reused" [ rs 0 + rs 1; 0 ]
    (counts [ left_deep; left_deep ]);
  (* Phase 1 holds (s⋈u), which the left-deep stitch-up cannot use. *)
  Alcotest.(check (list int)) "other shape: its intermediate discarded"
    [ rs 0; su 1 ]
    (counts [ left_deep; right_deep ]);
  Alcotest.(check (list int)) "no reuse: all discarded" [ 0; rs 0 + su 1 ]
    (counts ~reuse:false [ left_deep; right_deep ])

(* Words [f] allocates on the minor heap. *)
let minor_words f =
  (* determinism-ok: counts allocation; nothing here reads time *)
  let w0 = Gc.minor_words () in f (); Gc.minor_words () -. w0

(* Phase close copies no row.  After 10,000 pushes, the one reusable
   intermediate, (r⋈s), is a view of the rows the root join's table over
   it already holds, physically the same tuples, and looking it up
   allocates a constant number of words, not a number per row. *)
let test_register_copies_nothing () =
  let ph =
    Phase.create ~id:0 (Ctx.create ()) left_deep ~schema_of
      ~keep:Plan.keep_all
  in
  let push source rows =
    List.iter
      (fun t -> ignore (Plan.push ph.Phase.plan ~source t : Tuple.t list))
      rows
  in
  push "r" (List.init 4000 (fun i -> [| vi (i mod 2000); vi i |]));
  push "s" (List.init 4000 (fun i -> [| vi (i mod 2000); vi (i mod 1000) |]));
  push "u" (List.init 2000 (fun i -> [| vi i; vi i |]));
  let rs = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let signature = Plan.signature_of rs in
  let found = ref None in
  let words =
    minor_words (fun () -> found := Stitchup.registered ph ~signature)
  in
  let schema, view = Option.get !found in
  let held =
    Option.get
      (Plan.child_table ph.Phase.plan ~signature ~schema ~key_cols:[ "s.p" ])
  in
  let rows = Row_log.view_to_list view
  and table_rows = Row_log.view_to_list (Hash_table.view held) in
  Alcotest.(check int) "(r⋈s) rows" 8000 (Row_log.view_length view);
  Alcotest.(check bool) "the table's own rows" true
    (List.compare_lengths rows table_rows = 0
     && List.for_all2 ( == ) rows table_rows);
  Alcotest.(check bool) "the root is not reusable" true
    (Stitchup.registered ph ~signature:(Plan.signature_of left_deep) = None);
  Alcotest.(check bool)
    (Printf.sprintf "lookup allocates O(nodes) words (%.0f)" words)
    true (words < 1000.0)

(* [left_deep] and [swapped_left_deep] differ only in the inner join's
   input order: the same estimated cost and the same (r⋈s) intermediates
   to reuse, so they tie.  The phases' shapes are tried newest first, and
   only a strictly cheaper tree replaces the best so far. *)
let test_tree_choice_order () =
  let r, s, u = gen_inputs 9 40 in
  let catalog = Catalog.create () in
  List.iter
    (fun (name, schema) ->
      Catalog.add catalog name
        { Catalog.schema; cardinality = Some 40.0; key = None })
    tables;
  let choose shapes =
    let ctx = Ctx.create () in
    let phases =
      List.mapi
        (fun i spec ->
          let ph =
            Phase.create ~id:i ctx spec ~schema_of
              ~keep:(Logical.keep chain_query)
          in
          List.iter2
            (fun source rows ->
              List.iter
                (fun t ->
                  ignore (Plan.push ph.Phase.plan ~source t : Tuple.t list))
                (List.nth (segments 2 rows) i))
            [ "r"; "s"; "u" ] [ r; s; u ];
          ignore (Plan.flush ph.Phase.plan : Tuple.t list);
          ph)
        shapes
    in
    Format.asprintf "%a" Plan.pp_spec
      (Stitchup.join_tree ~preagg:Optimizer.No_preagg
         ~costs:Cost_model.default ~reuse:true chain_query catalog
         (Adp_stats.Selectivity.create ()) phases)
  in
  let show = Format.asprintf "%a" Plan.pp_spec in
  Alcotest.(check string) "newest phase's shape" (show swapped_left_deep)
    (choose [ left_deep; swapped_left_deep ]);
  Alcotest.(check string) "newest phase's shape, reversed" (show left_deep)
    (choose [ swapped_left_deep; left_deep ])

let test_shape_mismatch_recomputes () =
  let r, s, u = gen_inputs 7 40 in
  (* Phase 1 registers (s⋈u); stitch tree needs (r⋈s) for phase 1 —
     unavailable, hence recomputed. *)
  let _, stats =
    run_phased ~shapes:[ left_deep; right_deep ] ~stitch_tree:left_deep ~r ~s
      ~u ()
  in
  Alcotest.(check bool) "phase-0 intermediates reused" true
    (stats.Stitchup.reused > 0)

let test_reuse_across_column_orders () =
  let r, s, u = gen_inputs 8 40 in
  (* Phase 1 registers (s⋈r) as (s, r); the stitch tree reads it as
     (r⋈s), so the reused tuples must be permuted into (r, s). *)
  let got, stats =
    run_phased ~shapes:[ left_deep; swapped_left_deep ] ~stitch_tree:left_deep
      ~r ~s ~u ()
  in
  check_bag "permuted reuse stitches correctly" (Relation.to_list got)
    (oracle ~r ~s ~u);
  Alcotest.(check int) "both phases' inner results reused" 0
    stats.Stitchup.recomputed_uniform

let stitchup_identity =
  QCheck2.Test.make
    ~name:"ADP identity: phases ∪ stitch-up = single plan (qcheck)" ~count:40
    ~long_factor:10
    QCheck2.Gen.(
      tup4 (int_range 1 1000) (int_range 1 4) bool bool)
    (fun (seed, n_phases, shape0, stitch_shape) ->
      let r, s, u = gen_inputs seed 25 in
      let shape b = if b then left_deep else right_deep in
      let shapes =
        List.init n_phases (fun i -> shape (if i mod 2 = 0 then shape0 else not shape0))
      in
      let got, _ =
        run_phased ~shapes ~stitch_tree:(shape stitch_shape) ~r ~s ~u ()
      in
      same_bag (Relation.to_list got) (oracle ~r ~s ~u))

(* r ⋈ s on a two-column key, r.k = s.k AND r.p = s.p, then s.p = u.k.
   [on] gives the r ⋈ s key in either column order. *)
let two_key_on = [ "r.k", "s.k"; "r.p", "s.p" ]

let two_key_left_deep on =
  Plan.join
    (Plan.join (Plan.scan "r") (Plan.scan "s") ~on)
    (Plan.scan "u") ~on:[ "s.p", "u.k" ]

let two_key_right_deep on =
  Plan.join (Plan.scan "r")
    (Plan.join (Plan.scan "s") (Plan.scan "u") ~on:[ "s.p", "u.k" ])
    ~on

let two_key_query ~aggregate =
  { chain_query with
    Logical.join_preds = two_key_on @ [ "s.p", "u.k" ];
    group_cols = (if aggregate then [ "r.k" ] else []);
    aggs =
      (if aggregate then
         [ Aggregate.count_all ~name:"n";
           Aggregate.avg ~name:"a" (Expr.col "u.p") ]
       else []) }

(* [Plan.child_table] offers a join's live table only for a child read in
   that child's own layout, under the join's key list in its order. *)
let test_child_table_lookup () =
  let plan ?record_outputs spec =
    instantiate ?record_outputs (Ctx.create ()) spec ~schema_of
  in
  let found p spec ~schema key_cols =
    Option.is_some
      (Plan.child_table p ~signature:(Plan.signature_of spec) ~schema ~key_cols)
  in
  let check = Alcotest.(check bool) in
  let s_leaf = Plan.scan "s" and s_schema = schema_of "s" in
  let two_key = plan (two_key_left_deep two_key_on) in
  check "leaf under its join's key" true
    (found two_key s_leaf ~schema:s_schema [ "s.k"; "s.p" ]);
  check "reordered key list" false
    (found two_key s_leaf ~schema:s_schema [ "s.p"; "s.k" ]);
  check "plan without recorded outputs" false
    (found
       (plan ~record_outputs:false (two_key_left_deep two_key_on))
       s_leaf ~schema:s_schema [ "s.k"; "s.p" ]);
  let left = plan left_deep in
  check "root" false
    (found left left_deep ~schema:(Plan.schema left) [ "s.p" ]);
  let rs = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let swapped = plan swapped_left_deep in
  check "child in its own layout" true
    (found swapped rs ~schema:(Schema.concat s_schema (schema_of "r"))
       [ "s.p" ]);
  check "child of swapped_left_deep read as (r⋈s)" false
    (found swapped rs ~schema:(Schema.concat (schema_of "r") s_schema)
       [ "s.p" ])

(* Stitching the same phases with the r ⋈ s key in the phases' column
   order (their live tables are probed) and reversed (fresh tables are
   built) gives the same answer in the same order, on the same clock. *)
let live_tables_match_rebuilt =
  QCheck2.Test.make
    ~name:"live and rebuilt stitch-up tables agree (qcheck)" ~count:30
    ~long_factor:10
    QCheck2.Gen.(
      tup4 (int_range 1 1000) (int_range 2 3) bool bool)
    (fun (seed, n_phases, shape0, stitch_shape) ->
      let rng = Adp_datagen.Prng.create seed in
      let mk () =
        List.init 30 (fun _ ->
            [| vi (Adp_datagen.Prng.int rng 3);
               vi (Adp_datagen.Prng.int rng 3) |])
      in
      let r = mk () and s = mk () and u = mk () in
      let shape b = if b then two_key_left_deep else two_key_right_deep in
      let shapes =
        List.init n_phases (fun i ->
            shape (if i mod 2 = 0 then shape0 else not shape0) two_key_on)
      in
      let run ~aggregate on =
        let ctx = Ctx.create () in
        let got, stats =
          run_phased ~query:(two_key_query ~aggregate) ~ctx ~shapes
            ~stitch_tree:(shape stitch_shape on) ~r ~s ~u ()
        in
        Relation.to_list got, stats, Ctx.now ctx
      in
      let agree ~aggregate =
        let live = run ~aggregate two_key_on
        and rebuilt = run ~aggregate (List.rev two_key_on) in
        live = rebuilt
      in
      let rows, plain, _ = run ~aggregate:false two_key_on in
      let _, grouped, _ = run ~aggregate:true two_key_on in
      (* Streaming into the aggregating sink still charges one agg_update
         per combination. *)
      let agg_time = grouped.Stitchup.time -. plain.Stitchup.time
      and want =
        float_of_int plain.Stitchup.output
        *. (Ctx.create ()).Ctx.costs.agg_update
      in
      agree ~aggregate:false && agree ~aggregate:true
      && Float.abs (agg_time -. want) <= 1e-9 *. grouped.Stitchup.time
      && same_bag rows
           (oracle_join
              (oracle_join r s ~on:[ 0, 0; 1, 1 ])
              u ~on:[ 3, 0 ]))

let suite =
  [ Alcotest.test_case "two phases, same shape" `Quick test_two_phases_same_shape;
    Alcotest.test_case "two phases, different shapes" `Quick
      test_two_phases_different_shapes;
    Alcotest.test_case "three phases" `Quick test_three_phases;
    Alcotest.test_case "single phase" `Quick test_single_phase_no_stitch;
    Alcotest.test_case "empty phase segments" `Quick test_empty_phase_segments;
    Alcotest.test_case "registry reuse accounting" `Quick
      test_registry_reuse_accounting;
    Alcotest.test_case "reuse across column orders" `Quick
      test_reuse_across_column_orders;
    Alcotest.test_case "phase registration copies no row" `Quick
      test_register_copies_nothing;
    Alcotest.test_case "stitch-up tree: newest phase first, ties keep" `Quick
      test_tree_choice_order;
    Alcotest.test_case "shape mismatch recomputes" `Quick
      test_shape_mismatch_recomputes;
    Alcotest.test_case "live join table lookup" `Quick test_child_table_lookup;
    qtest stitchup_identity;
    qtest live_tables_match_rebuilt ]
