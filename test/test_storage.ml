open Adp_relation
open Adp_storage
open Helpers

let ks = keyed_schema "t"

(* ---------------- Hash table ---------------- *)

let test_hash_basic () =
  let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Hash_table.insert h [| vi 1; vi 10 |];
  Hash_table.insert h [| vi 1; vi 11 |];
  Hash_table.insert h [| vi 2; vi 20 |];
  Alcotest.(check int) "length" 3 (Hash_table.length h);
  Alcotest.(check int) "distinct" 2 (Hash_table.distinct_keys h);
  Alcotest.(check int) "probe multi" 2 (List.length (Hash_table.probe h [| vi 1 |]));
  Alcotest.(check int) "probe miss" 0 (List.length (Hash_table.probe h [| vi 9 |]))

let test_hash_rehash () =
  let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Hash_table.insert h [| vi 1; vi 10 |];
  Hash_table.insert h [| vi 2; vi 10 |];
  let r = Hash_table.rehash h ~key_cols:[ "t.p" ] in
  Alcotest.(check int) "contents kept" 2 (Hash_table.length r);
  Alcotest.(check int) "new key works" 2
    (List.length (Hash_table.probe r [| vi 10 |]))

(* SQL equality: a NULL key, or one with a NULL column, is stored (it
   counts and iterates) but no probe ever matches it. *)
let test_hash_null_keys () =
  let single = Hash_table.create ks ~key_cols:[ "t.k" ] in
  let other = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Hash_table.insert other [| Value.Null; vi 0 |];
  Hash_table.insert single [| Value.Null; vi 1 |];
  Alcotest.(check int) "null insert_probe matches nothing" 0
    (List.length
       (Hash_table.insert_probe single [| Value.Null; vi 2 |] ~probe:other));
  Alcotest.(check int) "nulls stored" 2 (Hash_table.length single);
  Alcotest.(check int) "one null key" 1 (Hash_table.distinct_keys single);
  Alcotest.(check int) "nulls iterate" 2 (List.length (Hash_table.to_list single));
  Alcotest.(check int) "probe null" 0
    (List.length (Hash_table.probe single [| Value.Null |]));
  Alcotest.(check int) "probe_value null" 0
    (List.length (Hash_table.probe_value single Value.Null));
  let ks3 = Schema.make [ "t.a"; "t.b"; "t.p" ] in
  let multi = Hash_table.create ks3 ~key_cols:[ "t.a"; "t.b" ] in
  Hash_table.insert multi [| vi 1; Value.Null; vi 0 |];
  Hash_table.insert multi [| vi 1; vi 2; vi 1 |];
  Alcotest.(check int) "composite with null" 0
    (List.length (Hash_table.probe multi [| vi 1; Value.Null |]));
  Alcotest.(check int) "probe_tuple with null" 0
    (List.length
       (Hash_table.probe_tuple multi [| vi 1; Value.Null; vi 9 |] [| 0; 1 |]));
  Alcotest.(check int) "composite without null" 1
    (List.length (Hash_table.probe multi [| vi 1; vi 2 |]))

let test_hash_swap () =
  let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Alcotest.(check bool) "in memory" false (Hash_table.swapped h);
  Hash_table.swap_out h;
  Alcotest.(check bool) "swapped" true (Hash_table.swapped h);
  Hash_table.swap_in h;
  Alcotest.(check bool) "back in" false (Hash_table.swapped h)

let hash_model =
  QCheck2.Test.make ~name:"hash table matches assoc model" ~count:100
    ~long_factor:10
    (gen_keyed_tuples ~key_range:10 ~max_len:60)
    (fun tuples ->
      let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
      List.iter (Hash_table.insert h) tuples;
      List.for_all
        (fun k ->
          let got = Hash_table.probe h [| vi k |] in
          let want =
            List.filter (fun t -> Value.equal t.(0) (vi k)) tuples
          in
          same_bag got want)
        (List.init 10 Fun.id)
      && Hash_table.length h = List.length tuples
      && same_bag (Hash_table.to_list h) tuples)

(* The keyed path against the composite-key table it replaces: a stdlib
   table over [Tuple.key] arrays hashed by [Tuple.hash_key], filled the
   way the engine always filled it (newest match first, 256 buckets). *)
module Ktbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal = Tuple.equal_key
  let hash = Tuple.hash_key
end)

let ref_fill r idx tuples =
  List.iter
    (fun t ->
      let k = Tuple.key t idx in
      match Ktbl.find_opt r k with
      | Some cell -> cell := t :: !cell
      | None -> Ktbl.replace r k (ref [ t ]))
    tuples

let ref_build idx tuples =
  let r = Ktbl.create 256 in
  ref_fill r idx tuples;
  r

(* Probes follow SQL equality: a key with a NULL column matches nothing. *)
let ref_probe r k =
  if Array.exists Value.is_null k then []
  else match Ktbl.find_opt r k with Some c -> !c | None -> []

(* The iteration orders themselves are under test below. *)
let ref_iter_order r =
  let acc = ref [] in
  (* determinism-ok: this order is the reference the test compares *)
  Ktbl.iter (fun _ cell -> List.iter (fun t -> acc := t :: !acc) !cell) r;
  List.rev !acc

let ref_to_list r =
  (* determinism-ok: this order is the reference the test compares *)
  Ktbl.fold (fun _ cell acc -> List.rev_append !cell acc) r []

let ks3 = Schema.make [ "t.a"; "t.b"; "t.p" ]

(* Few distinct small keys (duplicates, NULLs, Int 3 = Float 3.0) mixed
   with a wide integer range that makes the tables resize. *)
let gen_key_value =
  QCheck2.Gen.(
    frequency
      [ (1, pure Value.Null);
        (3, map vi (int_bound 4));
        (2, map (fun i -> vf (float_of_int i)) (int_bound 4));
        (1, pure (vf 3.5));
        (3, map vi (int_bound 2000)) ])

let gen_keyed_rows =
  QCheck2.Gen.(
    pair bool
      (list_size (int_bound 1500) (pair gen_key_value gen_key_value)
      |> map (List.mapi (fun i (a, b) -> [| a; b; vi i |]))))

let keyed_path_model =
  QCheck2.Test.make ~name:"keyed path matches composite-key table" ~count:60
    ~long_factor:10
    gen_keyed_rows
    (fun (two_cols, tuples) ->
      let key_cols = if two_cols then [ "t.a"; "t.b" ] else [ "t.a" ] in
      let idx = if two_cols then [| 0; 1 |] else [| 0 |] in
      let h = Hash_table.create ks3 ~key_cols in
      List.iter (Hash_table.insert h) tuples;
      let r = ref_build idx tuples in
      let probes = [| Value.Null; vi 3; vf 3.0; vf 3.5; vi 7 |] :: tuples in
      let probes_agree p =
        let k = Tuple.key p idx in
        let want = ref_probe r k in
        Hash_table.probe h k = want
        && Hash_table.probe_tuple h p idx = want
        && (two_cols || Hash_table.probe_value h p.(0) = want)
      in
      let iterated = ref [] in
      (* determinism-ok: iteration order is what this property checks *)
      Hash_table.iter (fun t -> iterated := t :: !iterated) h;
      let other = if two_cols then [ "t.b" ] else [ "t.a"; "t.b" ] in
      let other_idx = if two_cols then [| 1 |] else [| 0; 1 |] in
      let rehashed = Hash_table.rehash h ~key_cols:other in
      let rr = ref_build other_idx (ref_iter_order r) in
      List.for_all probes_agree probes
      && List.rev !iterated = ref_iter_order r
      && Hash_table.to_list h = ref_to_list r
      && Hash_table.distinct_keys h = Ktbl.length r
      && Hash_table.length rehashed = List.length tuples
      && Hash_table.to_list rehashed = ref_to_list rr
      && List.for_all
           (fun p ->
             Hash_table.probe_tuple rehashed p other_idx
             = ref_probe rr (Tuple.key p other_idx))
           tuples)

(* [insert_probe] is one join side; [of_list] probes like a filled table. *)
let insert_probe_model =
  QCheck2.Test.make ~name:"insert_probe and of_list match insert + probe"
    ~count:60 ~long_factor:10 gen_keyed_rows
    (fun (two_cols, tuples) ->
      let key_cols = if two_cols then [ "t.a"; "t.b" ] else [ "t.a" ] in
      let idx = if two_cols then [| 0; 1 |] else [| 0 |] in
      let fused_l = Hash_table.create ks3 ~key_cols
      and fused_r = Hash_table.create ks3 ~key_cols
      and plain_l = Hash_table.create ks3 ~key_cols
      and plain_r = Hash_table.create ks3 ~key_cols in
      let sized = Hash_table.of_list ks3 ~key_cols tuples in
      List.for_all
        (fun t ->
          let left = Value.compare t.(1) (vi 2) < 0 in
          let fl, fr, pl, pr =
            if left then fused_l, fused_r, plain_l, plain_r
            else fused_r, fused_l, plain_r, plain_l
          in
          let fused = Hash_table.insert_probe fl t ~probe:fr in
          Hash_table.insert pl t;
          fused = Hash_table.probe pr (Tuple.key t idx)
          && Hash_table.probe_tuple sized t idx
             = List.filter
                 (fun u ->
                   let k = Tuple.key t idx in
                   (not (Array.exists Value.is_null k))
                   && Tuple.equal_key (Tuple.key u idx) k)
                 (List.rev tuples))
        tuples
      && Hash_table.to_list fused_l = Hash_table.to_list plain_l
      && Hash_table.to_list fused_r = Hash_table.to_list plain_r
      && Hash_table.length sized = List.length tuples)

(* Layout equivalence on tables large enough to double at least three
   times (a 256-bucket table doubles past 512, 1024 and 2048 keys).  Keys
   mix NULL, Int 3 / Float 3.0, NaN and strings with a wide integer
   range. *)
let layout_value rng =
  match Adp_datagen.Prng.int rng 16 with
  | 0 -> Value.Null
  | 1 -> vi 3
  | 2 -> vf 3.0
  | 3 -> vf Float.nan
  | 4 | 5 | 6 -> vs ("s" ^ string_of_int (Adp_datagen.Prng.int rng 50_000))
  | _ -> vi (Adp_datagen.Prng.int rng 1_000_000)

(* Rows are drawn from a seeded stream, so a failure shrinks the seed and
   the row count rather than a list of thousands of rows. *)
let gen_layout_rows =
  QCheck2.Gen.(
    triple bool (int_bound 1_000_000) (int_range 3500 5000)
    |> map (fun (two_cols, seed, n) ->
           let rng = Adp_datagen.Prng.create seed in
           ( two_cols,
             List.init n (fun i ->
                 let a = layout_value rng in
                 let b = layout_value rng in
                 [| a; b; vi i |]) )))

let iter_order h =
  let acc = ref [] in
  (* determinism-ok: iteration order is what the layout properties check *)
  Hash_table.iter (fun t -> acc := t :: !acc) h;
  List.rev !acc

(* The same tuples, physically, in the same order ([=] fails on NaN). *)
let same_rows a b =
  List.length a = List.length b && List.for_all2 ( == ) a b

let same_layout h r =
  same_rows (iter_order h) (ref_iter_order r)
  && same_rows (Hash_table.to_list h) (ref_to_list r)
  && Hash_table.distinct_keys h = Ktbl.length r

let layout_matches_stdlib =
  QCheck2.Test.make ~name:"layout matches Hashtbl.Make through doublings"
    ~count:10 ~long_factor:10 gen_layout_rows
    (fun (two_cols, tuples) ->
      let key_cols = if two_cols then [ "t.a"; "t.b" ] else [ "t.a" ] in
      let idx = if two_cols then [| 0; 1 |] else [| 0 |] in
      let h = Hash_table.create ks3 ~key_cols in
      List.iter (Hash_table.insert h) tuples;
      let r = ref_build idx tuples in
      Hash_table.distinct_keys h > 2048 && same_layout h r)

let layout_after_reuse =
  QCheck2.Test.make
    ~name:"layout after clear, rehash and of_list matches Hashtbl.Make"
    ~count:10 ~long_factor:10 gen_layout_rows
    (fun (two_cols, tuples) ->
      let key_cols = if two_cols then [ "t.a"; "t.b" ] else [ "t.a" ] in
      let idx = if two_cols then [| 0; 1 |] else [| 0 |] in
      let other = if two_cols then [ "t.b" ] else [ "t.a"; "t.b" ] in
      let other_idx = if two_cols then [| 1 |] else [| 0; 1 |] in
      let h = Hash_table.create ks3 ~key_cols in
      let r = ref_build idx tuples in
      List.iter (Hash_table.insert h) tuples;
      (* [clear] shrinks back to 256 buckets, as [Hashtbl.reset] does. *)
      let again = List.filteri (fun i _ -> i mod 3 <> 0) tuples in
      Hash_table.clear h;
      Ktbl.reset r;
      List.iter (Hash_table.insert h) again;
      ref_fill r idx again;
      let rehashed = Hash_table.rehash h ~key_cols:other in
      let rr = ref_build other_idx (ref_iter_order r) in
      let sized = Hash_table.of_list ks3 ~key_cols tuples in
      let rs = Ktbl.create (List.length tuples) in
      ref_fill rs idx tuples;
      Hash_table.length h = List.length again
      && same_layout h r
      && same_layout rehashed rr
      && same_layout sized rs)

(* Bucket layout, and with it every iteration order above, rests on these
   values; they must not change. *)
let test_hash_key_values () =
  List.iter
    (fun (k, h) ->
      Alcotest.(check int) (Tuple.to_string k) h (Tuple.hash_key k))
    [ ([| vi 3 |], 96786705); ([| vf 3.0 |], 96786705);
      ([| Value.Null |], 527); ([| vs "x" |], 780510600);
      ([| Value.Date 9000 |], 364418301); ([| vi 1; vs "x" |], 2562941346);
      ([||], 17) ]

(* ---------------- Tuple adapter ---------------- *)

let test_adapter () =
  let from = Schema.make [ "t.a"; "t.b"; "t.c" ] in
  let into = Schema.make [ "t.c"; "t.a"; "t.b" ] in
  let ad = Tuple_adapter.create ~from ~into in
  Alcotest.(check bool) "not identity" false (Tuple_adapter.is_identity ad);
  let t = Tuple_adapter.adapt ad [| vi 1; vi 2; vi 3 |] in
  Alcotest.(check bool) "permuted" true (t = [| vi 3; vi 1; vi 2 |]);
  let idad = Tuple_adapter.create ~from ~into:from in
  Alcotest.(check bool) "identity" true (Tuple_adapter.is_identity idad);
  Alcotest.check_raises "different columns"
    (Invalid_argument
       "Tuple_adapter.create: (t.a, t.b, t.c) vs (t.a, t.b)") (fun () ->
      ignore (Tuple_adapter.create ~from ~into:(Schema.make [ "t.a"; "t.b" ])))

let adapter_roundtrip =
  QCheck2.Test.make ~name:"adapter there-and-back is identity" ~count:100
    QCheck2.Gen.(list_size (int_bound 6) small_int)
    (fun payload ->
      let n = List.length payload in
      QCheck2.assume (n > 0);
      let cols = List.init n (fun i -> Printf.sprintf "t.c%d" i) in
      let from = Schema.make cols in
      let into = Schema.make (List.rev cols) in
      let t = Array.of_list (List.map vi payload) in
      let there = Tuple_adapter.adapt (Tuple_adapter.create ~from ~into) t in
      let back =
        Tuple_adapter.adapt (Tuple_adapter.create ~from:into ~into:from) there
      in
      back = t)

(* ---------------- Registry ---------------- *)

let test_registry () =
  let r = Registry.create () in
  let sch = keyed_schema "e" in
  Registry.register r ~signature:"e1" ~phase:0 ~schema:sch ~complexity:2
    [ [| vi 1; vi 2 |]; [| vi 3; vi 4 |] ];
  Registry.register r ~signature:"e1" ~phase:1 ~schema:sch ~complexity:2
    [ [| vi 5; vi 6 |] ];
  Registry.register r ~signature:"e2" ~phase:0 ~schema:sch ~complexity:3 [];
  Alcotest.(check (list int)) "phases_with" [ 0; 1 ]
    (Registry.phases_with r ~signature:"e1");
  (match Registry.find r ~signature:"e1" ~phase:0 with
   | None -> Alcotest.fail "entry missing"
   | Some e ->
     Alcotest.(check int) "cardinality" 2 e.Registry.cardinality;
     Registry.mark_reused e);
  Alcotest.(check int) "reused" 2 (Registry.reused_tuples r);
  Alcotest.(check int) "discarded" 1 (Registry.discarded_tuples r);
  (match Registry.page_out_order r with
   | first :: _ ->
     Alcotest.(check int) "most complex paged first" 3 first.Registry.complexity
   | [] -> Alcotest.fail "empty page-out order");
  Registry.clear r;
  Alcotest.(check int) "cleared" 0 (List.length (Registry.entries r))

let test_registry_complexity_filter () =
  let r = Registry.create () in
  let sch = keyed_schema "e" in
  (* Base-relation buffers (complexity 1) never count as reused/discarded. *)
  Registry.register r ~signature:"leaf" ~phase:0 ~schema:sch ~complexity:1
    [ [| vi 1; vi 2 |] ];
  Alcotest.(check int) "leaf not discarded" 0 (Registry.discarded_tuples r)

let suite =
  [ Alcotest.test_case "hash basics" `Quick test_hash_basic;
    Alcotest.test_case "hash rehash" `Quick test_hash_rehash;
    Alcotest.test_case "hash swap flags" `Quick test_hash_swap;
    Alcotest.test_case "hash NULL keys stored, never matched" `Quick
      test_hash_null_keys;
    qtest hash_model;
    qtest keyed_path_model;
    qtest insert_probe_model;
    qtest layout_matches_stdlib;
    qtest layout_after_reuse;
    Alcotest.test_case "hash key values pinned" `Quick test_hash_key_values;
    Alcotest.test_case "tuple adapter" `Quick test_adapter;
    qtest adapter_roundtrip;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "registry complexity filter" `Quick
      test_registry_complexity_filter ]
