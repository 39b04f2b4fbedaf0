open Adp_relation

let s = Schema.make [ "t.a"; "t.b"; "u.c" ]

let test_basics () =
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "qualified index" 1 (Schema.index s "t.b");
  Alcotest.(check int) "bare index" 2 (Schema.index s "c");
  Alcotest.(check bool) "mem" true (Schema.mem s "t.a");
  Alcotest.(check bool) "not mem" false (Schema.mem s "t.z")

let test_duplicates () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column t.a")
    (fun () -> ignore (Schema.make [ "t.a"; "t.a" ]))

let test_ambiguous_bare () =
  let s2 = Schema.make [ "t.x"; "u.x" ] in
  Alcotest.check_raises "ambiguous" Not_found (fun () ->
      ignore (Schema.index s2 "x"));
  Alcotest.(check int) "qualified works" 1 (Schema.index s2 "u.x")

let test_concat () =
  let a = Schema.make [ "t.a" ] and b = Schema.make [ "u.b" ] in
  let c = Schema.concat a b in
  Alcotest.(check int) "concat arity" 2 (Schema.arity c);
  Alcotest.(check int) "left first" 0 (Schema.index c "t.a");
  Alcotest.check_raises "concat dup"
    (Invalid_argument "Schema.make: duplicate column t.a") (fun () ->
      ignore (Schema.concat a a))

let test_project () =
  let p = Schema.project s [ "u.c"; "t.a" ] in
  Alcotest.(check int) "reordered" 0 (Schema.index p "u.c");
  Alcotest.(check int) "second" 1 (Schema.index p "t.a")

let test_rename_qualifier () =
  let r = Schema.rename_qualifier s "m" in
  Alcotest.(check bool) "renamed" true (Schema.mem r "m.a");
  Alcotest.(check bool) "renamed c" true (Schema.mem r "m.c");
  Alcotest.(check bool) "old gone" false (Schema.mem r "t.a")

let test_permutation () =
  let from = Schema.make [ "t.a"; "t.b"; "t.c" ] in
  let into = Schema.make [ "t.c"; "t.a"; "t.b" ] in
  let perm = Schema.permutation ~from ~into in
  Alcotest.(check (array int)) "perm" [| 2; 0; 1 |] perm;
  Alcotest.(check bool) "permuted" true
    (Tuple.project [| Value.Int 1; Value.Int 2; Value.Int 3 |] perm
     = [| Value.Int 3; Value.Int 1; Value.Int 2 |])

let permutation_roundtrip =
  QCheck2.Test.make ~name:"permutation there-and-back is identity" ~count:100
    QCheck2.Gen.(list_size (int_bound 6) small_int)
    (fun payload ->
      let n = List.length payload in
      QCheck2.assume (n > 0);
      let cols = List.init n (fun i -> Printf.sprintf "t.c%d" i) in
      let from = Schema.make cols in
      let into = Schema.make (List.rev cols) in
      let t = Array.of_list (List.map (fun i -> Value.Int i) payload) in
      let there = Tuple.project t (Schema.permutation ~from ~into) in
      Tuple.project there (Schema.permutation ~from:into ~into:from) = t)

let test_same_columns () =
  let a = Schema.make [ "t.a"; "t.b" ] in
  let b = Schema.make [ "t.b"; "t.a" ] in
  Alcotest.(check bool) "same set" true (Schema.same_columns a b);
  Alcotest.(check bool) "not equal" false (Schema.equal a b);
  Alcotest.(check bool) "equal self" true (Schema.equal a a)

let suite =
  [ Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "duplicate detection" `Quick test_duplicates;
    Alcotest.test_case "ambiguous bare lookup" `Quick test_ambiguous_bare;
    Alcotest.test_case "concat" `Quick test_concat;
    Alcotest.test_case "project" `Quick test_project;
    Alcotest.test_case "rename qualifier" `Quick test_rename_qualifier;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Helpers.qtest permutation_roundtrip;
    Alcotest.test_case "column-set equality" `Quick test_same_columns ]
