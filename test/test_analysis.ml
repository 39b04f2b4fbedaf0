(* Static analyzer tests: every plan the optimizer can produce must pass
   the analyzer clean (property), and every deliberately broken plan must
   yield its expected diagnostic code (mutations).  The stitch-up matrix
   checker is additionally tested against hand-damaged combination sets —
   a matrix that misses or duplicates a combination must be rejected. *)

open Adp_relation
open Adp_exec
open Adp_optimizer
open Adp_analysis
open Adp_core
open Adp_query
open Adp_datagen
open Helpers

(* ---------------- fixture: small star workload ---------------- *)

let fact_schema = Schema.make [ "f.k1"; "f.k2"; "f.v"; "f.s" ]
let dim_schema prefix = Schema.make [ prefix ^ ".k"; prefix ^ ".w" ]

let catalog () =
  let c = Catalog.create () in
  Catalog.add c "f"
    { Catalog.schema = fact_schema; cardinality = Some 10_000.0; key = None };
  Catalog.add c "a"
    { Catalog.schema = dim_schema "a"; cardinality = Some 100.0;
      key = Some "a.k" };
  Catalog.add c "b"
    { Catalog.schema = dim_schema "b"; cardinality = Some 1000.0;
      key = Some "b.k" };
  c

let lookup =
  let c = catalog () in
  fun r -> try Some (Catalog.schema_of c r) with Not_found -> None

(* f.s is a string, everything else an int. *)
let types col = if col = "f.s" then Some Value.Ty_str else Some Value.Ty_int

let query () =
  { Logical.sources =
      [ { Logical.name = "f"; filter = Predicate.tt };
        { Logical.name = "a"; filter = Predicate.gt "a.w" (vi 5) };
        { Logical.name = "b"; filter = Predicate.tt } ];
    join_preds = [ "f.k1", "a.k"; "f.k2", "b.k" ];
    group_cols = []; aggs = []; projection = [] }

let good_plan () =
  Plan.join
    (Plan.join (Plan.scan "f")
       (Plan.scan ~filter:(Predicate.gt "a.w" (vi 5)) "a")
       ~on:[ "f.k1", "a.k" ])
    (Plan.scan "b")
    ~on:[ "f.k2", "b.k" ]

let codes ds = Diagnostic.codes (Diagnostic.errors ds)
let has_code c ds = List.mem c (codes ds)

let check_code name c ds =
  Alcotest.(check bool) (name ^ " yields " ^ c) true (has_code c ds)

(* ---------------- pass 1: schema / type checking ---------------- *)

let test_clean_plan () =
  let ds = Analyzer.check_plan_for_query ~types ~lookup (query ()) (good_plan ()) in
  Alcotest.(check (list string)) "no diagnostics" [] (List.map (fun d -> d.Diagnostic.code) ds)

let test_spec_schema () =
  match Analyzer.spec_schema ~lookup (good_plan ()) with
  | Ok s ->
    Alcotest.(check int) "arity is concat of inputs" 8 (Schema.arity s)
  | Error ds -> Alcotest.fail (Diagnostic.to_string ds)

let test_unknown_source () =
  check_code "unknown scan" "unknown-source"
    (Analyzer.check_plan ~lookup (Plan.scan "nope"))

let test_unknown_filter_column () =
  check_code "bad filter column" "unknown-column"
    (Analyzer.check_plan ~lookup
       (Plan.scan ~filter:(Predicate.gt "f.zz" (vi 0)) "f"))

let test_dropped_join_key () =
  let p =
    match good_plan () with
    | Plan.Join j -> Plan.Join { j with right_key = [] }
    | _ -> assert false
  in
  check_code "dropped key" "join-key-arity-mismatch"
    (Analyzer.check_plan ~lookup p)

let test_unresolved_join_key () =
  check_code "key on wrong side" "join-key-unresolved"
    (Analyzer.check_plan ~lookup
       (Plan.join (Plan.scan "f") (Plan.scan "a") ~on:[ "a.k", "f.k1" ]))

let test_swapped_key_types () =
  (* f.s is a string; joining it with the int a.k can never match. *)
  check_code "str-int join" "join-key-type-mismatch"
    (Analyzer.check_plan ~types ~lookup
       (Plan.join (Plan.scan "f") (Plan.scan "a") ~on:[ "f.s", "a.k" ]))

let test_int_float_keys_joinable () =
  let types _ = Some Value.Ty_float in
  let ds =
    Analyzer.check_plan ~types ~lookup
      (Plan.join (Plan.scan "f") (Plan.scan "a") ~on:[ "f.k1", "a.k" ])
  in
  Alcotest.(check bool) "numeric cross-type keys are fine" false
    (has_code "join-key-type-mismatch" ds)

let test_duplicate_source_in_plan () =
  check_code "self-join without rename" "duplicate-source-in-plan"
    (Analyzer.check_plan ~lookup
       (Plan.join (Plan.scan "f") (Plan.scan "f") ~on:[ "f.k1", "f.k1" ]))

let test_cross_product_warning () =
  let ds =
    Analyzer.check_plan ~lookup
      (Plan.join (Plan.scan "f") (Plan.scan "a") ~on:[])
  in
  Alcotest.(check bool) "warns" true
    (List.exists (fun d -> d.Diagnostic.code = "cross-product-join") ds);
  Alcotest.(check bool) "only a warning" false (Diagnostic.has_errors ds)

let test_preagg_missing_column () =
  check_code "group col absent" "preagg-missing-column"
    (Analyzer.check_plan ~lookup
       (Plan.preagg ~group_cols:[ "f.zz" ]
          ~aggs:[ Aggregate.count_all ~name:"n" ]
          (Plan.scan "f")));
  check_code "agg input absent" "preagg-missing-column"
    (Analyzer.check_plan ~lookup
       (Plan.preagg ~group_cols:[ "f.k1" ]
          ~aggs:[ Aggregate.sum ~name:"s" (Expr.col "f.zz") ]
          (Plan.scan "f")))

let test_preagg_non_numeric_agg () =
  check_code "sum over string" "preagg-non-numeric-agg"
    (Analyzer.check_plan ~types ~lookup
       (Plan.preagg ~group_cols:[ "f.k1" ]
          ~aggs:[ Aggregate.sum ~name:"s" (Expr.col "f.s") ]
          (Plan.scan "f")));
  (* min/max order strings fine. *)
  let ds =
    Analyzer.check_plan ~types ~lookup
      (Plan.preagg ~group_cols:[ "f.k1" ]
         ~aggs:[ Aggregate.max_of ~name:"m" (Expr.col "f.s") ]
         (Plan.scan "f"))
  in
  Alcotest.(check bool) "max over string is fine" false
    (has_code "preagg-non-numeric-agg" ds)

let test_plan_query_mismatches () =
  let q = query () in
  check_code "missing relation" "plan-relation-mismatch"
    (Analyzer.check_plan_for_query ~lookup q
       (Plan.join (Plan.scan "f")
          (Plan.scan ~filter:(Predicate.gt "a.w" (vi 5)) "a")
          ~on:[ "f.k1", "a.k" ]));
  let p =
    match good_plan () with
    | Plan.Join j -> Plan.Join { j with left_key = [ "f.k1" ]; right_key = [ "b.k" ] }
    | _ -> assert false
  in
  check_code "altered predicate" "plan-predicate-mismatch"
    (Analyzer.check_plan_for_query ~lookup q p);
  let rec drop_filters = function
    | Plan.Scan s -> Plan.Scan { s with filter = Predicate.tt }
    | Plan.Join j ->
      Plan.Join { j with left = drop_filters j.left; right = drop_filters j.right }
    | Plan.Preagg p -> Plan.Preagg { p with child = drop_filters p.child }
  in
  check_code "dropped pushdown filter" "plan-filter-mismatch"
    (Analyzer.check_plan_for_query ~lookup q (drop_filters (good_plan ())))

(* ---------------- query checking ---------------- *)

let test_check_query () =
  let ds = Analyzer.check_query ~lookup (query ()) in
  Alcotest.(check (list string)) "clean query" [] (codes ds);
  let dup =
    { (query ()) with
      Logical.sources =
        { Logical.name = "f"; filter = Predicate.tt }
        :: (query ()).Logical.sources }
  in
  check_code "duplicate source" "duplicate-source"
    (Analyzer.check_query ~lookup dup);
  let disc = { (query ()) with Logical.join_preds = [ "f.k1", "a.k" ] } in
  check_code "disconnected" "disconnected-join-graph"
    (Analyzer.check_query ~lookup disc);
  let bad = { (query ()) with Logical.group_cols = [ "f.zz" ] } in
  check_code "unknown column" "unknown-column"
    (Analyzer.check_query ~lookup bad);
  (* All problems reported at once, not first-error-only. *)
  let multi =
    { (query ()) with
      Logical.join_preds = [ "f.k1", "a.k" ];
      group_cols = [ "f.zz" ] }
  in
  Alcotest.(check (list string)) "both reported"
    [ "disconnected-join-graph"; "unknown-column" ]
    (codes (Analyzer.check_query ~lookup multi))

(* Only predicates between the query's own relations connect it: b is
   reached from f only through c, which the query does not read. *)
let test_chain_outside_query () =
  let q =
    { (query ()) with
      Logical.join_preds = [ "f.k1", "a.k"; "f.k2", "c.k"; "c.k", "b.k" ] }
  in
  let ds = Analyzer.check_query ~lookup q in
  check_code "chain through c" "disconnected-join-graph" ds;
  check_code "chain through c" "unknown-source-for-column" ds

let test_too_many_relations () =
  let n = Enumerate.max_relations + 1 in
  let names = List.init n (Printf.sprintf "r%d") in
  let lookup r =
    if List.mem r names then Some (Schema.make [ r ^ ".k" ]) else None
  in
  let q =
    { Logical.sources =
        List.map (fun r -> { Logical.name = r; filter = Predicate.tt }) names;
      join_preds =
        List.init (n - 1) (fun i ->
            Printf.sprintf "r%d.k" i, Printf.sprintf "r%d.k" (i + 1));
      group_cols = []; aggs = []; projection = [] }
  in
  check_code "beyond enumerator bound" "too-many-relations"
    (Analyzer.check_query ~lookup q)

(* ---------------- pass 2: ADP conformance ---------------- *)

let test_conformance () =
  let left_deep = good_plan () in
  let bushy =
    Plan.join
      (Plan.join (Plan.scan "f")
         (Plan.scan ~filter:(Predicate.gt "a.w" (vi 5)) "a")
         ~on:[ "f.k1", "a.k" ])
      (Plan.scan "b")
      ~on:[ "f.k2", "b.k" ]
  in
  Alcotest.(check (list string)) "same leaves conform" []
    (codes (Analyzer.check_conformance [ left_deep; bushy ]));
  (* Mismatched leaf sets across phases. *)
  let smaller =
    Plan.join (Plan.scan "f")
      (Plan.scan ~filter:(Predicate.gt "a.w" (vi 5)) "a")
      ~on:[ "f.k1", "a.k" ]
  in
  check_code "phase covers fewer relations" "adp-base-set-mismatch"
    (Analyzer.check_conformance [ left_deep; smaller ]);
  (* Same base set but a different pushed-down filter: the phases would
     partition *different* streams of a. *)
  let refiltered =
    Plan.join
      (Plan.join (Plan.scan "f")
         (Plan.scan ~filter:(Predicate.gt "a.w" (vi 99)) "a")
         ~on:[ "f.k1", "a.k" ])
      (Plan.scan "b")
      ~on:[ "f.k2", "b.k" ]
  in
  check_code "phase refilters a leaf" "adp-leaf-signature-mismatch"
    (Analyzer.check_conformance [ left_deep; refiltered ])

let test_equivalence () =
  let before = good_plan () in
  let after =
    Plan.join
      (Plan.join (Plan.scan "f")
         (Plan.scan ~filter:(Predicate.gt "a.w" (vi 5)) "a")
         ~on:[ "f.k1", "a.k" ])
      (Plan.preagg ~group_cols:[ "b.k" ]
         ~aggs:[ Aggregate.count_all ~name:"n" ]
         (Plan.scan "b"))
      ~on:[ "f.k2", "b.k" ]
  in
  Alcotest.(check (list string)) "preagg insertion is equivalent" []
    (codes (Analyzer.check_equivalent ~before ~after));
  let dropped =
    Plan.join (Plan.scan "f")
      (Plan.scan ~filter:(Predicate.gt "a.w" (vi 5)) "a")
      ~on:[ "f.k1", "a.k" ]
  in
  check_code "dropping a relation" "rewrite-relation-mismatch"
    (Analyzer.check_equivalent ~before ~after:dropped)

(* ---------------- pass 3: stitch-up coverage ---------------- *)

let test_symbolic_counts () =
  (* Left-deep over 3 relations, n phases → n³ − n mixed combinations. *)
  let tree = good_plan () in
  List.iter
    (fun n ->
      let combos = Stitch_matrix.symbolic ~phases:n tree in
      Alcotest.(check int)
        (Printf.sprintf "left-deep 3 leaves, %d phases" n)
        ((n * n * n) - n)
        (List.length combos);
      Alcotest.(check (list string)) "and exactly covers the matrix" []
        (codes
           (Stitch_matrix.check_cover ~relations:(Plan.relations tree)
              ~phases:n combos)))
    [ 2; 3; 4 ];
  (* Bushy over 4 relations. *)
  let bushy =
    Plan.join
      (Plan.join (Plan.scan "w") (Plan.scan "x") ~on:[ "w.k", "x.k" ])
      (Plan.join (Plan.scan "y") (Plan.scan "z") ~on:[ "y.k", "z.k" ])
      ~on:[ "w.k", "y.k" ]
  in
  List.iter
    (fun n ->
      let combos = Stitch_matrix.symbolic ~phases:n bushy in
      Alcotest.(check int)
        (Printf.sprintf "bushy 4 leaves, %d phases" n)
        ((n * n * n * n) - n)
        (List.length combos);
      Alcotest.(check (list string)) "exactly covers" []
        (codes
           (Stitch_matrix.check_cover ~relations:(Plan.relations bushy)
              ~phases:n combos)))
    [ 2; 3 ]

let test_matrix_damage () =
  let tree = good_plan () in
  let relations = Plan.relations tree in
  let combos = Stitch_matrix.symbolic ~phases:2 tree in
  (* 2³ − 2 = 6 combinations; damage them one way at a time. *)
  Alcotest.(check int) "baseline count" 6 (List.length combos);
  check_code "missing combination" "stitch-missing-combo"
    (Stitch_matrix.check_cover ~relations ~phases:2 (List.tl combos));
  check_code "duplicated combination" "stitch-duplicate-combo"
    (Stitch_matrix.check_cover ~relations ~phases:2
       (List.hd combos :: combos));
  check_code "uniform combination leaks through" "stitch-uniform-combo"
    (Stitch_matrix.check_cover ~relations ~phases:2
       (List.map (fun r -> (r, 0)) relations :: combos));
  check_code "combination outside the matrix" "stitch-alien-combo"
    (Stitch_matrix.check_cover ~relations ~phases:2
       (List.map (fun r -> (r, 7)) relations :: combos));
  (* The buggy-evaluator model (no root exclusion list) is rejected. *)
  check_code "evaluator without exclusion list" "stitch-uniform-combo"
    (Stitch_matrix.check ~exclude_root_uniform:false ~phases:2 tree)

let test_stitch_tree_checks () =
  let q = query () in
  Alcotest.(check (list string)) "good tree passes" []
    (codes (Analyzer.check_stitch_tree ~phases:3 q (good_plan ())));
  let preagg_high =
    Plan.preagg ~group_cols:[ "f.k1" ]
      ~aggs:[ Aggregate.count_all ~name:"n" ]
      (good_plan ())
  in
  check_code "preagg above a join" "stitch-preagg-above-join"
    (Analyzer.check_stitch_tree ~phases:3 q preagg_high)

let test_matrix_too_large () =
  (* 8 relations × 6 phases = 6⁸ ≈ 1.7M > bound: warn, don't enumerate. *)
  let rels = List.init 8 (Printf.sprintf "r%d") in
  let ds = Stitch_matrix.check_cover ~relations:rels ~phases:6 [] in
  Alcotest.(check bool) "warns instead" true
    (List.exists (fun d -> d.Diagnostic.code = "stitch-matrix-too-large") ds);
  Alcotest.(check bool) "not an error" false (Diagnostic.has_errors ds)

(* ---------------- pass 4: knobs and determinism ---------------- *)

let test_knobs () =
  let ok =
    Analyzer.check_knobs ~poll_interval:1e4 ~switch_threshold:0.7
      ~min_leaf_seen:100
      ~retry:Retry.default_policy
  in
  Alcotest.(check (list string)) "defaults are clean" [] (codes ok);
  let zero =
    Analyzer.check_knobs ~poll_interval:1e4 ~switch_threshold:0.0
      ~min_leaf_seen:0
      ~retry:Retry.no_timeouts
  in
  Alcotest.(check (list string)) "pinned-plan config is legal" [] (codes zero);
  let bad =
    Analyzer.check_knobs ~poll_interval:(-1.0) ~switch_threshold:(-0.5)
      ~min_leaf_seen:(-1)
      ~retry:{ Retry.default_policy with jitter = 1.5; backoff_multiplier = 0.5 }
  in
  Alcotest.(check (list string)) "every bad knob reported"
    [ "poll_interval"; "switch_threshold"; "min_leaf_seen";
      "retry.backoff_multiplier"; "retry.jitter" ]
    (List.map (fun d -> d.Diagnostic.path) (Diagnostic.errors bad));
  Alcotest.(check (list string)) "all under one code" [ "bad-knob" ] (codes bad)

(* ---------------- effect & determinism lint ----------------------- *)

module Lint = Adp_lint.Lint
module Src_unit = Adp_lint.Src_unit

let unit_of ~path src =
  match Src_unit.parse ~path src with
  | Ok u -> u
  | Error (line, msg) ->
    Alcotest.fail (Printf.sprintf "fixture %s:%d did not parse: %s" path line msg)

let has_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let lint ?entries ~path src = Lint.analyze ?entries [ unit_of ~path src ]
let lint_codes ?entries ~path src = Diagnostic.codes (lint ?entries ~path src)

let test_lint_forbidden_effect () =
  Alcotest.(check (list string)) "wall clock flagged as an escape"
    [ "lint-wallclock-escape" ]
    (lint_codes ~path:"lib/x.ml" "let f () = Sys.time ()\n");
  Alcotest.(check (list string)) "unseeded randomness flagged"
    [ "lint-forbidden-effect" ]
    (lint_codes ~path:"lib/x.ml" "let f () = Random.int 10\n");
  Alcotest.(check (list string)) "seeded Random.State is fine" []
    (lint_codes ~path:"lib/x.ml" "let f st = Random.State.int st 10\n");
  Alcotest.(check (list string)) "reasoned waiver exempts" []
    (lint_codes ~path:"lib/x.ml"
       "let f () = Sys.time () (* determinism-ok: harness timing *)\n");
  (match lint ~path:"lib/x.ml" "let a = 1\nlet t = Unix.gettimeofday ()\n" with
   | [ d ] ->
     Alcotest.(check string) "code" "lint-wallclock-escape" d.Diagnostic.code;
     Alcotest.(check string) "path" "lib/x.ml" d.Diagnostic.path;
     Alcotest.(check bool) "message carries the line" true
       (has_sub ~sub:"line 2" d.Diagnostic.message);
     Alcotest.(check bool) "message names the sanctioned module" true
       (has_sub ~sub:"obs/wallclock.ml" d.Diagnostic.message)
   | ds -> Alcotest.fail (Diagnostic.to_string ds))

(* The structural allowlist: the one sanctioned wall-reading module is
   clean by construction (no waivers needed), and the same code moved
   anywhere else — the seeded mutation — is flagged immediately. *)
let test_lint_wallclock_allowlist () =
  let probe =
    "let monotonic_s () = Unix.gettimeofday ()\n\
     let cpu_now () = Sys.time ()\n\
     let alloc () = Gc.quick_stat ()\n"
  in
  Alcotest.(check (list string)) "sanctioned module is clean, unwaived" []
    (lint_codes ~path:"lib/obs/wallclock.ml" probe);
  Alcotest.(check (list string)) "same code elsewhere escapes"
    [ "lint-wallclock-escape" ]
    (lint_codes ~path:"lib/exec/clocky.ml" probe);
  Alcotest.(check int) "all three reads reported"
    3
    (List.length (lint ~path:"lib/exec/clocky.ml" probe));
  (* GC introspection counts as a wall read: allocation totals are
     hardware state, not virtual time. *)
  Alcotest.(check (list string)) "Gc.quick_stat classified as wall read"
    [ "lint-wallclock-escape" ]
    (lint_codes ~path:"lib/x.ml" "let f () = Gc.quick_stat ()\n");
  (* Sanctioned reads must not consume waivers: a stale waiver inside
     the sanctioned module is still reported as unused. *)
  Alcotest.(check (list string)) "waiver in sanctioned module is unused"
    [ "lint-unused-waiver" ]
    (lint_codes ~path:"lib/obs/wallclock.ml"
       "let f () = Sys.time () (* determinism-ok: stale *)\n")

(* The old substring scanner flagged banned names inside strings and
   comments; the AST-based lint must not. *)
let test_lint_string_comment_immune () =
  Alcotest.(check (list string)) "strings and comments are not uses" []
    (lint_codes ~path:"lib/x.ml"
       "(* calls Sys.time and Random.int, honest *)\n\
        let doc = \"Sys.time () and Unix.gettimeofday ()\"\n\
        let f x = x + String.length doc\n")

let test_lint_waiver_audit () =
  Alcotest.(check (list string)) "used waiver without reason is an error"
    [ "lint-waiver-reason" ]
    (lint_codes ~path:"lib/x.ml"
       "let f () = Sys.time () (* determinism-ok *)\n");
  Alcotest.(check (list string)) "unused waiver is flagged"
    [ "lint-unused-waiver" ]
    (lint_codes ~path:"lib/x.ml"
       "(* determinism-ok: nothing here needs this *)\nlet f x = x + 1\n")

let test_lint_reachability () =
  let helper =
    unit_of ~path:"lib/core/helper.ml"
      "let go () = Sys.getenv_opt \"ADP_X\"\n"
  in
  let entries = [ ("Eng", Some "run") ] in
  let eng src = unit_of ~path:"lib/core/eng.ml" src in
  let ds =
    Lint.analyze ~entries [ eng "let run () = Helper.go ()\n"; helper ]
  in
  Alcotest.(check (list string)) "ambient read reachable from entry"
    [ "lint-effect-reachable" ] (Diagnostic.codes ds);
  (match ds with
   | [ d ] ->
     Alcotest.(check bool) "witness names the chain" true
       (has_sub ~sub:"Eng.run -> Helper.go -> Sys.getenv_opt" d.Diagnostic.message)
   | _ -> Alcotest.fail "expected one diagnostic");
  let waived =
    Lint.analyze ~entries
      [ eng
          "let run () =\n\
           \  (* determinism-ok: config read once at startup *)\n\
           \  Helper.go ()\n";
        unit_of ~path:"lib/core/helper.ml"
          "let go () = Sys.getenv_opt \"ADP_X\"\n" ]
  in
  Alcotest.(check (list string)) "call-site waiver cuts the edge" []
    (Diagnostic.codes waived)

let test_lint_hash_order () =
  Alcotest.(check (list string)) "fold into a list, unsorted"
    [ "lint-unsorted-hash-fold" ]
    (lint_codes ~path:"lib/x.ml"
       "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n");
  Alcotest.(check (list string)) "fold piped into a sort is fine" []
    (lint_codes ~path:"lib/x.ml"
       "let keys h =\n\
        \  Hashtbl.fold (fun k _ acc -> k :: acc) h []\n\
        \  |> List.sort compare\n");
  Alcotest.(check (list string)) "order-insensitive fold is fine" []
    (lint_codes ~path:"lib/x.ml"
       "let total h = Hashtbl.fold (fun _ v acc -> acc + v) h 0\n");
  Alcotest.(check (list string)) "iter accumulating into a ref"
    [ "lint-unsorted-hash-iter" ]
    (lint_codes ~path:"lib/x.ml"
       "let keys h =\n\
        \  let acc = ref [] in\n\
        \  Hashtbl.iter (fun k _ -> acc := k :: !acc) h;\n\
        \  !acc\n")

let test_lint_purity () =
  let engine = "lib/exec/x.ml" in
  Alcotest.(check (list string)) "unguarded emit in engine code"
    [ "lint-unguarded-emit" ]
    (lint_codes ~path:engine "let f t ev = Trace.emit t ev\n");
  Alcotest.(check (list string)) "guarded emit is fine" []
    (lint_codes ~path:engine
       "let f t ev = if Ctx.traced t then Trace.emit t ev\n");
  Alcotest.(check (list string)) "same code outside the engine is fine" []
    (lint_codes ~path:"bench/x.ml" "let f t ev = Trace.emit t ev\n");
  Alcotest.(check (list string)) "unguarded observability read"
    [ "lint-obs-read" ]
    (lint_codes ~path:engine "let n t = Trace.events t\n");
  Alcotest.(check (list string)) "guarded observability read is fine" []
    (lint_codes ~path:engine
       "let n t = if Trace.enabled t then Trace.events t else []\n");
  Alcotest.(check bool) "emission feeding a computation" true
    (List.mem "lint-emit-feedback"
       (lint_codes ~path:engine
          "let f t g ev = g (Trace.emit t ev)\n"));
  Alcotest.(check bool) "emission bound to a name" true
    (List.mem "lint-emit-feedback"
       (lint_codes ~path:engine
          "let f t ev = let x = Trace.emit t ev in x\n"))

(* Seeded mutations of real engine sources: each must be caught with its
   stable code.  The sources are read from the repo tree when it is
   visible from the test's working directory. *)
let repo_root () =
  let rec climb best dir =
    let best =
      if
        Sys.file_exists (Filename.concat dir "dune-project")
        && Sys.file_exists (Filename.concat dir "lib")
      then Some dir
      else best
    in
    let parent = Filename.dirname dir in
    if parent = dir then best else climb best parent
  in
  climb None (Sys.getcwd ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let buf = Buffer.create n in
  let i = ref 0 in
  let hit = ref false in
  while !i < n do
    if (not !hit) && !i + m <= n && String.sub s !i m = sub then begin
      Buffer.add_string buf by;
      hit := true;
      i := !i + m
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  if not !hit then Alcotest.fail ("mutation anchor not found: " ^ sub);
  Buffer.contents buf

let test_lint_catches_seeded_mutations () =
  match repo_root () with
  | None -> ()
  | Some root ->
    let path rel = Filename.concat root rel in
    let ctx = read_file (path "lib/exec/ctx.ml") in
    let unguarded =
      replace ~sub:"if traced t then Trace.emit" ~by:"Trace.emit" ctx
    in
    Alcotest.(check bool) "dropped traced guard caught" true
      (List.mem "lint-unguarded-emit"
         (lint_codes ~path:"lib/exec/ctx.ml" unguarded));
    (* The wallclock escape mutation: a hardware clock read seeded into
       engine code — outside the one sanctioned module — must be named
       as an escape. *)
    let wall_read =
      replace ~sub:"let traced t"
        ~by:"let drift () = Unix.gettimeofday ()\nlet traced t" ctx
    in
    Alcotest.(check bool) "seeded wall read caught as escape" true
      (List.mem "lint-wallclock-escape"
         (lint_codes ~path:"lib/exec/ctx.ml" wall_read));
    let jittered =
      replace ~sub:"let traced t"
        ~by:"let jitter () = Random.int 3\nlet traced t" ctx
    in
    Alcotest.(check bool) "inserted unseeded randomness caught" true
      (List.mem "lint-forbidden-effect"
         (lint_codes ~path:"lib/exec/ctx.ml" jittered));
    let matrix = read_file (path "lib/analysis/stitch_matrix.ml") in
    let unsorted =
      replace ~sub:"|> List.sort String.compare" ~by:"" matrix
    in
    Alcotest.(check bool) "deleted sort after fold caught" true
      (List.mem "lint-unsorted-hash-fold"
         (lint_codes ~path:"lib/analysis/stitch_matrix.ml" unsorted))

(* Property: the shipped tree lints clean — zero errors, zero warnings.
   This is the committed baseline the CI gate enforces. *)
let test_lint_tree_clean () =
  match repo_root () with
  | None -> ()
  | Some root ->
    let paths =
      List.filter Sys.file_exists
        (List.map (Filename.concat root) Lint.default_paths)
    in
    let r = Lint.run paths in
    Alcotest.(check (list string)) "shipped tree lints clean" []
      (List.map
         (fun (d : Diagnostic.t) -> d.code ^ " " ^ d.path ^ " " ^ d.message)
         r.Lint.r_diags)

let test_lint_json_report () =
  let u = unit_of ~path:"lib/x.ml" "let f () = Sys.time ()\n" in
  let r = { Lint.r_files = 1; r_diags = Lint.analyze [ u ] } in
  let json = Adp_obs.Json.to_string (Lint.report_json r) in
  match Adp_obs.Json.parse json with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
    let num field =
      Option.bind (Adp_obs.Json.member field j) Adp_obs.Json.get_int
    in
    Alcotest.(check (option int)) "schema" (Some 1) (num "schema");
    Alcotest.(check (option int)) "errors" (Some 1) (num "errors");
    Alcotest.(check (option int)) "warnings" (Some 0) (num "warnings");
    Alcotest.(check int) "report vs itself as baseline: no regressions" 0
      (List.length (Lint.diags_not_in_baseline r j));
    Alcotest.(check int) "report vs empty baseline: all diagnostics new" 1
      (List.length
         (Lint.diags_not_in_baseline r (Adp_obs.Json.Obj [])))

(* ---------------- property: optimizer output is always clean ------- *)

let gen_chain_workload =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let* cards = list_repeat n (int_range 10 100_000) in
    let* filtered = list_repeat n bool in
    let* phases = int_range 2 4 in
    pure (n, cards, filtered, phases))

let build_chain (n, cards, filtered, _phases) =
  let name i = Printf.sprintf "r%d" i in
  let schema i = Schema.make [ name i ^ ".k"; name i ^ ".v" ] in
  let c = Catalog.create () in
  List.iteri
    (fun i card ->
      Catalog.add c (name i)
        { Catalog.schema = schema i; cardinality = Some (float_of_int card);
          key = (if i mod 2 = 0 then Some (name i ^ ".k") else None) })
    cards;
  let q =
    { Logical.sources =
        List.init n (fun i ->
            { Logical.name = name i;
              filter =
                (if List.nth filtered i then
                   Predicate.gt (name i ^ ".v") (vi 500)
                 else Predicate.tt) });
      join_preds =
        List.init (n - 1) (fun i -> (name i ^ ".k", name (i + 1) ^ ".k"));
      group_cols = []; aggs = []; projection = [] }
  in
  (q, c)

let prop_enumerated_plans_clean =
  QCheck2.Test.make ~count:60 ~name:"every enumerated plan passes the analyzer"
    gen_chain_workload (fun ((_, _, _, phases) as w) ->
      let q, c = build_chain w in
      let lookup r = try Some (Catalog.schema_of c r) with Not_found -> None in
      let sels = Adp_stats.Selectivity.create () in
      let est = Cardinality.create q c sels in
      let best, _ = Enumerate.best_join_tree q est Cost_model.default in
      let worst, _ = Enumerate.worst_join_tree q est Cost_model.default in
      let top = List.map fst (Enumerate.top_trees ~k:3 q est Cost_model.default) in
      let plans = best :: worst :: top in
      List.for_all
        (fun p ->
          Analyzer.check_plan_for_query ~lookup q p
          |> Diagnostic.has_errors |> not)
        plans
      && Analyzer.check_conformance plans |> Diagnostic.has_errors |> not
      && List.for_all
           (fun p ->
             Analyzer.check_stitch_tree ~phases q p
             |> Diagnostic.has_errors |> not)
           plans)

(* Dropping one key from any join of any bundled workload's optimized
   plan is a key-arity mismatch: the analyzer must report it as an error
   diagnostic, never raise (as a pairwise map over the key lists would). *)
let test_drop_join_key_each_join () =
  let ds = Tpch.generate { Tpch.scale = 0.001; distribution = Tpch.Uniform; seed = 7 } in
  let fds =
    Flights.generate { Flights.default_config with n_flights = 100; n_travelers = 50 }
  in
  let workloads =
    List.map
      (fun wq ->
        let q = Workload.query wq in
        (Workload.name wq, q, Workload.catalog ~with_cardinalities:true ds q))
      Workload.all
    @ [ ("flights", Workload.flights_query, Workload.flights_catalog fds) ]
  in
  let drop_key_at n spec =
    let seen = ref (-1) in
    let rec go = function
      | Plan.Scan _ as s -> s
      | Plan.Join j ->
        incr seen;
        let left_key = if !seen = n then List.tl j.left_key else j.left_key in
        let left = go j.left in
        Plan.Join { j with left_key; left; right = go j.right }
      | Plan.Preagg p -> Plan.Preagg { p with child = go p.child }
    in
    go spec
  in
  List.iter
    (fun (name, q, c) ->
      let lookup r = try Some (Catalog.schema_of c r) with Not_found -> None in
      let sels = Adp_stats.Selectivity.create () in
      let plan = (Optimizer.optimize ~preagg:Optimizer.Auto q c sels).Optimizer.spec in
      for n = 0 to List.length (Plan.relations plan) - 2 do
        let broken = drop_key_at n plan in
        let ds =
          Analyzer.check_plan_for_query ~lookup q broken
          @ Analyzer.check_stitch_tree ~phases:2 q broken
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s, join %d: key drop is an error" name n)
          true (Diagnostic.has_errors ds)
      done)
    workloads

(* ---------------- integration: boundaries actually fire ----------- *)

let test_corrective_rejects_bad_initial_plan () =
  let ds = Tpch.generate { Tpch.scale = 0.001; distribution = Tpch.Uniform; seed = 7 } in
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog ds q in
  let sources () = Workload.sources ds q () in
  (* An initial plan that drops one of Q3's relations: the analyzer must
     refuse it before any tuple is read. *)
  let bad =
    Plan.join (Plan.scan "customer") (Plan.scan "orders")
      ~on:[ "customer.c_custkey", "orders.o_custkey" ]
  in
  match
    Strategy.run ~label:"bad" ~initial_plan:bad Strategy.corrective_default q
      catalog ~sources
  with
  | _ -> Alcotest.fail "bad initial plan accepted"
  | exception Diagnostic.Failed (where, diags) ->
    Alcotest.(check string) "failed at the initial-plan boundary"
      "corrective.initial-plan" where;
    Alcotest.(check bool) "reports the relation mismatch" true
      (has_code "plan-relation-mismatch" diags)

let test_strategy_rejects_bad_query () =
  let ds = Tpch.generate { Tpch.scale = 0.001; distribution = Tpch.Uniform; seed = 7 } in
  let q = Workload.query Workload.Q3A in
  let catalog = Workload.catalog ds q in
  let sources () = Workload.sources ds q () in
  let broken = { q with Logical.group_cols = [ "customer.c_nope" ] } in
  match Strategy.run ~label:"bad" Strategy.Eddying broken catalog ~sources with
  | _ -> Alcotest.fail "bad query accepted"
  | exception Diagnostic.Failed (where, diags) ->
    Alcotest.(check string) "failed at the strategy boundary" "strategy" where;
    Alcotest.(check bool) "reports the unknown column" true
      (has_code "unknown-column" diags)

let suite =
  [ Alcotest.test_case "clean plan" `Quick test_clean_plan;
    Alcotest.test_case "spec schema" `Quick test_spec_schema;
    Alcotest.test_case "unknown source" `Quick test_unknown_source;
    Alcotest.test_case "unknown filter column" `Quick test_unknown_filter_column;
    Alcotest.test_case "dropped join key" `Quick test_dropped_join_key;
    Alcotest.test_case "dropped key in every workload join" `Quick
      test_drop_join_key_each_join;
    Alcotest.test_case "unresolved join key" `Quick test_unresolved_join_key;
    Alcotest.test_case "swapped key types" `Quick test_swapped_key_types;
    Alcotest.test_case "int-float keys joinable" `Quick test_int_float_keys_joinable;
    Alcotest.test_case "duplicate source in plan" `Quick test_duplicate_source_in_plan;
    Alcotest.test_case "cross product warning" `Quick test_cross_product_warning;
    Alcotest.test_case "preagg missing column" `Quick test_preagg_missing_column;
    Alcotest.test_case "preagg non-numeric agg" `Quick test_preagg_non_numeric_agg;
    Alcotest.test_case "plan-query mismatches" `Quick test_plan_query_mismatches;
    Alcotest.test_case "check query" `Quick test_check_query;
    Alcotest.test_case "predicate chain outside the query" `Quick
      test_chain_outside_query;
    Alcotest.test_case "too many relations" `Quick test_too_many_relations;
    Alcotest.test_case "ADP conformance" `Quick test_conformance;
    Alcotest.test_case "rewrite equivalence" `Quick test_equivalence;
    Alcotest.test_case "symbolic matrix counts" `Quick test_symbolic_counts;
    Alcotest.test_case "damaged matrix rejected" `Quick test_matrix_damage;
    Alcotest.test_case "stitch tree checks" `Quick test_stitch_tree_checks;
    Alcotest.test_case "oversized matrix warns" `Quick test_matrix_too_large;
    Alcotest.test_case "knob ranges" `Quick test_knobs;
    Alcotest.test_case "lint: forbidden effects" `Quick
      test_lint_forbidden_effect;
    Alcotest.test_case "lint: wallclock structural allowlist" `Quick
      test_lint_wallclock_allowlist;
    Alcotest.test_case "lint: strings and comments immune" `Quick
      test_lint_string_comment_immune;
    Alcotest.test_case "lint: waiver audit" `Quick test_lint_waiver_audit;
    Alcotest.test_case "lint: entry-point reachability" `Quick
      test_lint_reachability;
    Alcotest.test_case "lint: hash-order sensitivity" `Quick
      test_lint_hash_order;
    Alcotest.test_case "lint: perturbation purity" `Quick test_lint_purity;
    Alcotest.test_case "lint: catches seeded mutations" `Quick
      test_lint_catches_seeded_mutations;
    Alcotest.test_case "lint: shipped tree is clean" `Quick
      test_lint_tree_clean;
    Alcotest.test_case "lint: JSON report and baseline" `Quick
      test_lint_json_report;
    qtest prop_enumerated_plans_clean;
    Alcotest.test_case "corrective rejects bad initial plan" `Quick
      test_corrective_rejects_bad_initial_plan;
    Alcotest.test_case "strategy rejects bad query" `Quick
      test_strategy_rejects_bad_query ]
