(* Shared test utilities: tiny relation builders, a nested-loop join oracle,
   and qcheck generators for random relations. *)

open Adp_relation

let vi i = Value.Int i
let vs s = Value.Str s
let vf f = Value.Float f

let schema cols = Schema.make cols

(* A plan built from a bare spec, with no query to narrow its joins:
   every join keeps every column. *)
let instantiate ?record_outputs ctx spec ~schema_of =
  Adp_exec.Plan.instantiate ?record_outputs ctx spec ~schema_of
    ~keep:Adp_exec.Plan.keep_all

let rel cols rows =
  Relation.of_list (schema cols) (List.map Array.of_list rows)

(* Multiset equality of tuple lists. *)
let same_bag a b =
  let sort l = List.sort Tuple.compare l in
  List.length a = List.length b
  && List.for_all2 Tuple.equal (sort a) (sort b)

let check_bag msg a b = Alcotest.(check bool) msg true (same_bag a b)

(* Bag equality with relative tolerance on floats — aggregation over floats
   is sensitive to summation order, and the engine and the oracle visit
   tuples in different orders. *)
let value_approx a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    let scale = max 1.0 (max (Float.abs x) (Float.abs y)) in
    Float.abs (x -. y) /. scale < 1e-9
  | _ -> Value.equal a b

let tuple_approx a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (value_approx v b.(i)) then ok := false) a;
  !ok

let approx_same_bag a b =
  let sort l = List.sort Tuple.compare l in
  List.length a = List.length b
  && List.for_all2 tuple_approx (sort a) (sort b)

let approx_same_relations a b =
  approx_same_bag (Relation.to_list a) (Relation.to_list b)

let check_approx_rel msg a b =
  Alcotest.(check bool) msg true (approx_same_relations a b)

(* Nested-loop equi-join oracle: left ⋈ right on (li, ri) index pairs. *)
let oracle_join left right ~on =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun r ->
          if List.for_all (fun (li, ri) -> Value.eq_sql l.(li) r.(ri)) on then
            Some (Tuple.concat l r)
          else None)
        right)
    left

(* qcheck generator: list of (k, payload) tuples with keys in [0, key_range). *)
let gen_keyed_tuples ~key_range ~max_len =
  QCheck2.Gen.(
    list_size (int_bound max_len)
      (pair (int_bound (key_range - 1)) (int_bound 1000))
    |> map
         (List.map (fun (k, p) -> [| Value.Int k; Value.Int p |])))

let keyed_schema prefix =
  Schema.make [ prefix ^ ".k"; prefix ^ ".p" ]

let qtest = QCheck_alcotest.to_alcotest
