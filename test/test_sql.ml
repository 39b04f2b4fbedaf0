open Adp_relation
open Adp_exec
open Adp_optimizer
open Adp_query

let schema_of = function
  | "emp" -> Schema.make [ "emp.id"; "emp.dept"; "emp.salary"; "emp.hired" ]
  | "dept" -> Schema.make [ "dept.id"; "dept.name" ]
  | name -> Adp_datagen.Tpch.schema_of name

let parse s = Sql_parser.parse ~schema_of s

(* ---------------- Lexer ---------------- *)

let test_lexer () =
  let toks = Sql_lexer.tokenize "SELECT a.b, 'x y' FROM t WHERE c >= 1.5" in
  Alcotest.(check int) "token count" 13 (List.length toks);
  (match toks with
   | Sql_lexer.KW "SELECT" :: Sql_lexer.IDENT "a" :: Sql_lexer.SYM "." :: _ -> ()
   | _ -> Alcotest.fail "unexpected token stream");
  Alcotest.(check bool) "string literal" true
    (List.mem (Sql_lexer.STRING "x y") toks);
  Alcotest.(check bool) "float" true (List.mem (Sql_lexer.FLOAT 1.5) toks)

let test_lexer_errors () =
  (try
     ignore (Sql_lexer.tokenize "SELECT 'unterminated");
     Alcotest.fail "unterminated string accepted"
   with Sql_lexer.Lex_error _ -> ());
  (try
     ignore (Sql_lexer.tokenize "SELECT #");
     Alcotest.fail "bad char accepted"
   with Sql_lexer.Lex_error _ -> ())

(* ---------------- Parser & resolution ---------------- *)

let test_simple_select () =
  let q = parse "SELECT emp.id FROM emp WHERE emp.salary > 1000" in
  Alcotest.(check (list string)) "projection" [ "emp.id" ] q.Logical.projection;
  Alcotest.(check int) "one source" 1 (List.length q.Logical.sources);
  let src = List.hd q.Logical.sources in
  Alcotest.(check bool) "filter pushed" true (src.Logical.filter <> Predicate.tt)

let test_unqualified_resolution () =
  let q = parse "SELECT salary FROM emp WHERE dept = 3" in
  Alcotest.(check (list string)) "qualified" [ "emp.salary" ] q.Logical.projection

let test_join_extraction () =
  let q =
    parse
      "SELECT emp.id, dept.name FROM emp, dept WHERE emp.dept = dept.id AND \
       emp.salary > 10"
  in
  Alcotest.(check (list (pair string string))) "join pred"
    [ "emp.dept", "dept.id" ] q.Logical.join_preds;
  Alcotest.(check int) "two sources" 2 (List.length q.Logical.sources)

let test_aggregation () =
  let q =
    parse
      "SELECT emp.dept, SUM(emp.salary) AS payroll, COUNT(*) AS heads FROM emp \
       GROUP BY emp.dept"
  in
  Alcotest.(check (list string)) "group" [ "emp.dept" ] q.Logical.group_cols;
  Alcotest.(check int) "two aggs" 2 (List.length q.Logical.aggs);
  let names = List.map (fun (a : Aggregate.spec) -> a.name) q.Logical.aggs in
  Alcotest.(check (list string)) "agg names" [ "payroll"; "heads" ] names

let test_arith_in_agg () =
  let q =
    parse
      "SELECT emp.dept, SUM(emp.salary * (1 - emp.dept)) AS x FROM emp GROUP \
       BY emp.dept"
  in
  (match q.Logical.aggs with
   | [ a ] ->
     Alcotest.(check (list string)) "expr cols" [ "emp.salary"; "emp.dept" ]
       (Expr.columns a.expr)
   | _ -> Alcotest.fail "expected one aggregate")

let test_between_in_date () =
  let q =
    parse
      "SELECT emp.id FROM emp WHERE emp.salary BETWEEN 10 AND 20 AND emp.dept \
       IN (1, 2, 3) AND emp.hired < DATE '1995-03-15'"
  in
  let src = List.hd q.Logical.sources in
  Alcotest.(check int) "three filter atoms in conjunction" 4
    (Predicate.size src.Logical.filter)

let test_flipped_literal () =
  let q = parse "SELECT emp.id FROM emp WHERE 1000 < emp.salary" in
  let src = List.hd q.Logical.sources in
  (match src.Logical.filter with
   | Predicate.Cmp (Predicate.Gt, "emp.salary", Value.Int 1000) -> ()
   | p -> Alcotest.fail ("unexpected filter " ^ Predicate.to_string p))

let test_errors () =
  let expect_fail s =
    try
      ignore (parse s);
      Alcotest.fail ("accepted: " ^ s)
    with Sql_parser.Parse_error _ -> ()
  in
  expect_fail "SELECT";
  expect_fail "SELECT x FROM nosuchtable";
  expect_fail "SELECT nosuchcol FROM emp";
  expect_fail "SELECT emp.id FROM emp WHERE";
  expect_fail "SELECT emp.id FROM emp, dept WHERE emp.id = dept.id AND id > 3";
  (* ambiguous: id exists in both *)
  expect_fail "SELECT emp.id, SUM(emp.salary) FROM emp GROUP BY emp.dept";
  (* non-aggregate item not in GROUP BY *)
  expect_fail "SELECT emp.salary + 1 FROM emp"
(* expression projections unsupported *)

let test_order_by () =
  let q, order =
    Sql_parser.parse_with_order ~schema_of
      "SELECT emp.dept, SUM(emp.salary) AS payroll FROM emp GROUP BY emp.dept \
       ORDER BY payroll DESC, emp.dept"
  in
  Alcotest.(check int) "query unaffected" 1 (List.length q.Logical.aggs);
  Alcotest.(check bool) "agg name + direction" true
    (order = [ "payroll", `Desc; "emp.dept", `Asc ]);
  (* plain parse ignores ORDER BY *)
  let q2 =
    parse "SELECT emp.id FROM emp ORDER BY emp.id DESC"
  in
  Alcotest.(check (list string)) "projection" [ "emp.id" ] q2.Logical.projection;
  (try
     ignore
       (Sql_parser.parse_with_order ~schema_of
          "SELECT emp.dept, SUM(emp.salary) AS p FROM emp GROUP BY emp.dept \
           ORDER BY emp.salary");
     Alcotest.fail "non-output ORDER BY accepted"
   with Sql_parser.Parse_error _ -> ())

let test_order_by_applied () =
  let rel =
    Relation.of_list
      (Schema.make [ "t.a"; "t.b" ])
      [ [| Value.Int 1; Value.Int 9 |]; [| Value.Int 2; Value.Int 9 |];
        [| Value.Int 1; Value.Int 3 |] ]
  in
  let sorted = Relation.order_by rel [ "t.b", `Desc; "t.a", `Asc ] in
  Alcotest.(check bool) "desc-then-asc" true
    (Relation.to_list sorted
    = [ [| Value.Int 1; Value.Int 9 |]; [| Value.Int 2; Value.Int 9 |];
        [| Value.Int 1; Value.Int 3 |] ])

let test_workload_queries_parse () =
  List.iter
    (fun qid ->
      let q = Workload.query qid in
      Logical.validate ~schema_of q;
      Alcotest.(check bool)
        (Workload.name qid ^ " has joins")
        true
        (List.length q.Logical.join_preds >= 2))
    [ Workload.Q3; Workload.Q3A; Workload.Q10; Workload.Q10A; Workload.Q5 ]

let test_workload_of_name () =
  List.iter
    (fun qid ->
      let name = Workload.name qid in
      List.iter
        (fun spelled ->
          Alcotest.(check bool) (Printf.sprintf "%S resolves" spelled) true
            (Workload.of_name spelled = Some qid))
        [ name; String.lowercase_ascii name; " " ^ name ^ "\t\n" ];
      Alcotest.(check bool) (name ^ "'s SQL is no name") true
        (Workload.of_name (Workload.sql qid) = None))
    [ Workload.Q3; Workload.Q3A; Workload.Q10; Workload.Q10A; Workload.Q5 ];
  Alcotest.(check bool) "an unknown id is no name" true
    (Workload.of_name "Q4" = None)

let test_workload_shapes () =
  let q3a = Workload.query Workload.Q3A in
  Alcotest.(check int) "Q3A: 3 relations" 3 (List.length q3a.Logical.sources);
  let q5 = Workload.query Workload.Q5 in
  Alcotest.(check int) "Q5: 6 relations" 6 (List.length q5.Logical.sources);
  Alcotest.(check int) "Q5: 6 join predicates" 6
    (List.length q5.Logical.join_preds);
  (* Q3 has date filters that Q3A lacks. *)
  let filter_atoms (q : Logical.query) =
    List.fold_left
      (fun acc (s : Logical.source) -> acc + Predicate.size s.Logical.filter)
      0 q.Logical.sources
  in
  Alcotest.(check bool) "Q3 more selective than Q3A" true
    (filter_atoms (Workload.query Workload.Q3) > filter_atoms q3a);
  let fl = Workload.flights_query in
  Alcotest.(check (list string)) "flights grouping"
    [ "f.fid"; "f.from_city" ] fl.Logical.group_cols

let suite =
  [ Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "simple select" `Quick test_simple_select;
    Alcotest.test_case "unqualified resolution" `Quick
      test_unqualified_resolution;
    Alcotest.test_case "join extraction" `Quick test_join_extraction;
    Alcotest.test_case "aggregation" `Quick test_aggregation;
    Alcotest.test_case "arithmetic in aggregates" `Quick test_arith_in_agg;
    Alcotest.test_case "between/in/date" `Quick test_between_in_date;
    Alcotest.test_case "flipped literal comparison" `Quick test_flipped_literal;
    Alcotest.test_case "error cases" `Quick test_errors;
    Alcotest.test_case "order by parsing" `Quick test_order_by;
    Alcotest.test_case "order by application" `Quick test_order_by_applied;
    Alcotest.test_case "workload queries parse" `Quick
      test_workload_queries_parse;
    Alcotest.test_case "workload names resolve" `Quick test_workload_of_name;
    Alcotest.test_case "workload query shapes" `Quick test_workload_shapes ]
