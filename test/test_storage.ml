open Adp_relation
open Adp_storage
open Helpers

let ks = keyed_schema "t"

(* The rows a probe's cursor visits, newest first. *)
let matches tbl cur =
  let rec walk acc cur =
    if cur < 0 then List.rev acc
    else walk (Hash_table.row tbl cur :: acc) (Hash_table.next tbl cur)
  in
  walk [] cur

(* ---------------- Hash table ---------------- *)

let test_hash_basic () =
  let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Hash_table.insert h [| vi 1; vi 10 |];
  Hash_table.insert h [| vi 1; vi 11 |];
  Hash_table.insert h [| vi 2; vi 20 |];
  Alcotest.(check int) "length" 3 (Hash_table.length h);
  Alcotest.(check int) "distinct" 2 (Hash_table.distinct_keys h);
  Alcotest.(check int) "probe multi" 2
    (List.length (matches h (Hash_table.probe h [| vi 1 |])));
  Alcotest.(check int) "probe miss" 0
    (List.length (matches h (Hash_table.probe h [| vi 9 |])))

(* SQL equality: a NULL key, or one with a NULL column, is stored (it
   counts and iterates) but no probe ever matches it. *)
let test_hash_null_keys () =
  let single = Hash_table.create ks ~key_cols:[ "t.k" ] in
  let other = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Hash_table.insert other [| Value.Null; vi 0 |];
  Hash_table.insert single [| Value.Null; vi 1 |];
  Alcotest.(check int) "null insert_probe matches nothing" 0
    (List.length
       (matches other
          (Hash_table.insert_probe single [| Value.Null; vi 2 |] ~probe:other)));
  Alcotest.(check int) "nulls stored" 2 (Hash_table.length single);
  Alcotest.(check int) "one null key" 1 (Hash_table.distinct_keys single);
  Alcotest.(check int) "nulls iterate" 2 (List.length (Hash_table.to_list single));
  Alcotest.(check int) "probe null" 0
    (List.length (matches single (Hash_table.probe single [| Value.Null |])));
  Alcotest.(check int) "probe_value null" 0
    (List.length (matches single (Hash_table.probe_value single Value.Null)));
  let ks3 = Schema.make [ "t.a"; "t.b"; "t.p" ] in
  let multi = Hash_table.create ks3 ~key_cols:[ "t.a"; "t.b" ] in
  Hash_table.insert multi [| vi 1; Value.Null; vi 0 |];
  Hash_table.insert multi [| vi 1; vi 2; vi 1 |];
  Alcotest.(check int) "composite with null" 0
    (List.length (matches multi (Hash_table.probe multi [| vi 1; Value.Null |])));
  Alcotest.(check int) "probe_tuple with null" 0
    (List.length
       (matches multi
          (Hash_table.probe_tuple multi [| vi 1; Value.Null; vi 9 |] [| 0; 1 |])));
  Alcotest.(check int) "composite without null" 1
    (List.length (matches multi (Hash_table.probe multi [| vi 1; vi 2 |])))

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
          let got = matches h (Hash_table.probe h [| vi k |]) in
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

(* GROUP BY equality: NULL matches NULL. *)
let ref_group r k = match Ktbl.find_opt r k with Some c -> !c | None -> []

(* Probes follow SQL equality: a key with a NULL column matches nothing. *)
let ref_probe r k = if Array.exists Value.is_null k then [] else ref_group r k

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
        matches h (Hash_table.probe h k) = want
        && matches h (Hash_table.probe_tuple h p idx) = want
        && matches h (Hash_table.group h p idx) = ref_group r k
        && (two_cols || matches h (Hash_table.probe_value h p.(0)) = want)
      in
      let iterated = ref [] in
      (* determinism-ok: iteration order is what this property checks *)
      Hash_table.iter (fun t -> iterated := t :: !iterated) h;
      List.for_all probes_agree probes
      && List.rev !iterated = ref_iter_order r
      && Hash_table.to_list h = ref_to_list r
      && Hash_table.distinct_keys h = Ktbl.length r)

(* [insert_probe] is one join side; [of_view] probes like a filled table. *)
let insert_probe_model =
  QCheck2.Test.make ~name:"insert_probe and of_view match insert + probe"
    ~count:60 ~long_factor:10 gen_keyed_rows
    (fun (two_cols, tuples) ->
      let key_cols = if two_cols then [ "t.a"; "t.b" ] else [ "t.a" ] in
      let idx = if two_cols then [| 0; 1 |] else [| 0 |] in
      let fused_l = Hash_table.create ks3 ~key_cols
      and fused_r = Hash_table.create ks3 ~key_cols
      and plain_l = Hash_table.create ks3 ~key_cols
      and plain_r = Hash_table.create ks3 ~key_cols in
      let sized =
        Hash_table.of_view ks3 ~key_cols (Row_log.view_of_list tuples)
      in
      List.for_all
        (fun t ->
          let left = Value.compare t.(1) (vi 2) < 0 in
          let fl, fr, pl, pr =
            if left then fused_l, fused_r, plain_l, plain_r
            else fused_r, fused_l, plain_r, plain_l
          in
          let fused = matches fr (Hash_table.insert_probe fl t ~probe:fr) in
          Hash_table.insert pl t;
          fused = matches pr (Hash_table.probe pr (Tuple.key t idx))
          && matches sized (Hash_table.probe_tuple sized t idx)
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

(* An [of_view] table's cursors are its rows' positions, past the 4096
   rows of a full chunk too. *)
let test_of_view_cursors () =
  List.iter
    (fun n ->
      let rows = List.init n (fun i -> [| vi i; vi (i mod 7) |]) in
      let h =
        Hash_table.of_view ks ~key_cols:[ "t.p" ] (Row_log.view_of_list rows)
      in
      let rec positions cur =
        cur < 0
        || (Value.equal (Hash_table.row h cur).(0) (vi cur)
            && positions (Hash_table.next h cur))
      in
      for k = 0 to 6 do
        if not (positions (Hash_table.probe_value h (vi k))) then
          Alcotest.failf "n = %d: a cursor is not its row's position" n
      done)
    [ 1; 5; 4096; 4097; 9000 ]

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
    ~name:"layout after clear and of_view matches Hashtbl.Make"
    ~count:10 ~long_factor:10 gen_layout_rows
    (fun (two_cols, tuples) ->
      let key_cols = if two_cols then [ "t.a"; "t.b" ] else [ "t.a" ] in
      let idx = if two_cols then [| 0; 1 |] else [| 0 |] in
      let h = Hash_table.create ks3 ~key_cols in
      let r = ref_build idx tuples in
      List.iter (Hash_table.insert h) tuples;
      (* [clear] shrinks back to 256 buckets, as [Hashtbl.reset] does. *)
      let again = List.filteri (fun i _ -> i mod 3 <> 0) tuples in
      Hash_table.clear h;
      Ktbl.reset r;
      List.iter (Hash_table.insert h) again;
      ref_fill r idx again;
      let sized =
        Hash_table.of_view ks3 ~key_cols (Row_log.view_of_list tuples)
      in
      let rs = Ktbl.create (List.length tuples) in
      ref_fill rs idx tuples;
      Hash_table.length h = List.length again
      && same_layout h r
      && same_layout sized rs)

(* Indexing is lazy: an insert only appends to the log, and the next read
   links the pending rows in log order.  Random steps (a run of inserts,
   the same followed by a probe through one of the probe functions, a run
   of [insert_probe]s alternating between two tables as a join's sides
   do, or a clear) must leave both tables laid out as Hashtbl.Make tables
   filled eagerly, after every step, with the layout checks taken in a
   rotating order so that each of them is at times the read that links.
   A cursor keeps walking the matches it had while its table grows, until
   the table is cleared. *)
type lazy_step =
  | Inserts of Tuple.t list
  | Probe of Tuple.t list * int * Tuple.t
      (* inserts, then which probe function, and the probe row *)
  | Insert_probes of Tuple.t list
  | Clear

(* NULL, NaN, Int 3 beside Float 3.0, duplicate small keys, and a wide
   integer range that makes the tables resize. *)
let lazy_value rng =
  match Adp_datagen.Prng.int rng 12 with
  | 0 -> Value.Null
  | 1 -> vi 3
  | 2 -> vf 3.0
  | 3 -> vf Float.nan
  | 4 | 5 -> vi (Adp_datagen.Prng.int rng 10)
  | _ -> vi (Adp_datagen.Prng.int rng 5000)

let gen_lazy_steps =
  QCheck2.Gen.(
    triple bool (int_bound 1_000_000) (int_range 1 40)
    |> map (fun (two_cols, seed, n) ->
           let rng = Adp_datagen.Prng.create seed in
           let next = ref 0 in
           let row () =
             let a = lazy_value rng in
             let b = lazy_value rng in
             incr next;
             [| a; b; vi !next |]
           in
           let rows m =
             List.init (Adp_datagen.Prng.int rng m) (fun _ -> row ())
           in
           ( two_cols,
             List.init n (fun _ ->
                 let side = Adp_datagen.Prng.int rng 2 in
                 ( side,
                   match Adp_datagen.Prng.int rng 8 with
                   | 0 | 1 -> Inserts (rows 700)
                   | 2 | 3 | 4 ->
                     let ins = rows 700 in
                     Probe (ins, Adp_datagen.Prng.int rng 4, row ())
                   | 5 | 6 -> Insert_probes (rows 60)
                   | _ -> Clear )) )))

let lazy_matches_eager =
  QCheck2.Test.make ~name:"lazy indexing matches eager Hashtbl.Make"
    ~count:20 ~long_factor:10 gen_lazy_steps
    (fun (two_cols, steps) ->
      let key_cols = if two_cols then [ "t.a"; "t.b" ] else [ "t.a" ] in
      let idx = if two_cols then [| 0; 1 |] else [| 0 |] in
      let h = Array.init 2 (fun _ -> Hash_table.create ks3 ~key_cols) in
      let r = Array.init 2 (fun _ -> Ktbl.create 256) in
      (* Live cursors: (side, cursor, the rows it walked when taken). *)
      let cursors = ref [] in
      let take side cur want =
        let ok = same_rows (matches h.(side) cur) want in
        cursors := (side, cur, want) :: !cursors;
        ok
      in
      let insert side rows =
        List.iter (Hash_table.insert h.(side)) rows;
        ref_fill r.(side) idx rows
      in
      let probe side fn p =
        let k = Tuple.key p idx and t = h.(side) in
        match fn with
        | 0 -> take side (Hash_table.probe t k) (ref_probe r.(side) k)
        | 1 -> take side (Hash_table.probe_tuple t p idx) (ref_probe r.(side) k)
        | 2 when not two_cols ->
          take side (Hash_table.probe_value t p.(0)) (ref_probe r.(side) k)
        | _ -> take side (Hash_table.group t p idx) (ref_group r.(side) k)
      in
      let layout i side =
        let t = h.(side) and rt = r.(side) in
        let checks =
          [| (fun () -> same_rows (iter_order t) (ref_iter_order rt));
             (fun () -> same_rows (Hash_table.to_list t) (ref_to_list rt));
             (fun () -> Hash_table.distinct_keys t = Ktbl.length rt) |]
        in
        List.for_all (fun j -> checks.((i + j) mod 3) ()) [ 0; 1; 2 ]
      in
      List.for_all Fun.id
        (List.mapi
           (fun i (side, step) ->
             let ok =
               match step with
               | Inserts rows ->
                 insert side rows;
                 true
               | Probe (rows, fn, p) ->
                 insert side rows;
                 probe side fn p
               | Insert_probes rows ->
                 List.for_all Fun.id
                   (List.mapi
                      (fun j t ->
                        let s = (side + j) mod 2 in
                        let cur =
                          Hash_table.insert_probe h.(s) t ~probe:h.(1 - s)
                        in
                        ref_fill r.(s) idx [ t ];
                        take (1 - s) cur
                          (ref_probe r.(1 - s) (Tuple.key t idx)))
                      rows)
               | Clear ->
                 Hash_table.clear h.(side);
                 Ktbl.reset r.(side);
                 cursors := List.filter (fun (s, _, _) -> s <> side) !cursors;
                 true
             in
             ok
             && layout i side
             && layout (i + 1) (1 - side)
             && List.for_all
                  (fun (s, cur, want) -> same_rows (matches h.(s) cur) want)
                  !cursors)
           steps))

(* A table nobody probes holds only its rows: the first probe builds the
   index, a 5-word entry per key plus a link per row, so it adds at least
   6 words a row. *)
let test_unprobed_no_index () =
  let n = 10_000 in
  let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
  for i = 1 to n do
    Hash_table.insert h [| vi i; vi 0 |]
  done;
  let before = Obj.reachable_words (Obj.repr h) in
  Alcotest.(check int) "probe" 1
    (Hash_table.count h (Hash_table.probe_value h (vi 7)));
  let grew = Obj.reachable_words (Obj.repr h) - before in
  if grew < 6 * n then
    Alcotest.failf
      "the first probe added %d words for %d rows: an index existed" grew n

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

(* ---------------- Row log ---------------- *)

(* Rows pushed in several runs, crossing chunk boundaries (the first
   chunk's size is drawn; chunks cap at 4096 rows), with a view taken
   after each run: every view keeps exactly the rows pushed before it, in
   both directions, however many rows follow; each id reads its row and
   its link; a copy of a view lists the same rows. *)
let row_log_views =
  QCheck2.Test.make ~name:"row log views are snapshots" ~count:40
    ~long_factor:10
    QCheck2.Gen.(
      pair (int_range 1 40) (list_size (int_range 1 6) (int_bound 5000)))
    (fun (first, runs) ->
      let log = Row_log.create ~first () in
      let pushed = ref [] and ids = ref [] and n = ref 0 in
      let views =
        List.map
          (fun k ->
            for _ = 1 to k do
              let row = [| vi !n |] in
              let id = Row_log.push log row in
              Row_log.set_link log id (!n - 1);
              ids := (id, row, !n - 1) :: !ids;
              pushed := row :: !pushed;
              incr n
            done;
            (Row_log.view log, List.rev !pushed))
          runs
      in
      List.for_all
        (fun (v, want) ->
          let back = ref [] in
          Row_log.view_iter (fun r -> back := r :: !back) v;
          let rev = ref [] in
          Row_log.view_rev_iter (fun r -> rev := r :: !rev) v;
          Row_log.view_to_list v = want
          && !rev = want
          && List.rev !back = want
          && Row_log.view_length v = List.length want
          && Row_log.view_to_list (Row_log.view (Row_log.of_view v)) = want
          && Row_log.view_to_list (Row_log.view_of_list want) = want)
        views
      && Row_log.length log = !n
      && List.for_all
           (fun (id, row, link) ->
             Row_log.get log id == row && Row_log.link log id = link)
           !ids)

let suite =
  [ Alcotest.test_case "hash basics" `Quick test_hash_basic;
    Alcotest.test_case "hash swap flags" `Quick test_hash_swap;
    Alcotest.test_case "hash NULL keys stored, never matched" `Quick
      test_hash_null_keys;
    qtest hash_model;
    qtest keyed_path_model;
    qtest insert_probe_model;
    Alcotest.test_case "of_view cursors are positions" `Quick
      test_of_view_cursors;
    qtest layout_matches_stdlib;
    qtest layout_after_reuse;
    qtest lazy_matches_eager;
    Alcotest.test_case "an unprobed table builds no index" `Quick
      test_unprobed_no_index;
    Alcotest.test_case "hash key values pinned" `Quick test_hash_key_values;
    qtest row_log_views ]
