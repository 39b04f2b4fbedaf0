open Adp_relation
open Adp_stats
open Adp_datagen
open Helpers

(* ---------------- Histogram ---------------- *)

let test_histogram_exact_small () =
  let h = Histogram.create ~buckets:10 in
  for _ = 1 to 5 do
    Histogram.add h (vi 42)
  done;
  Histogram.add h (vi 7);
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "freq heavy" 5.0 (Histogram.estimate_freq h (vi 42));
  Alcotest.(check (float 1e-9)) "freq light" 1.0 (Histogram.estimate_freq h (vi 7))

let test_histogram_nulls () =
  let h = Histogram.create ~buckets:10 in
  Histogram.add h Value.Null;
  Histogram.add h (vi 1);
  Alcotest.(check int) "null tracked" 1 (Histogram.null_count h);
  Alcotest.(check int) "total includes null" 2 (Histogram.count h)

let test_histogram_join_estimate () =
  (* Exact join size on small key domains: sum over v of f1(v) * f2(v). *)
  let rng = Prng.create 3 in
  let h1 = Histogram.create ~buckets:50 and h2 = Histogram.create ~buckets:50 in
  let c1 = Array.make 20 0 and c2 = Array.make 20 0 in
  for _ = 1 to 2000 do
    let k = Prng.int rng 20 in
    c1.(k) <- c1.(k) + 1;
    Histogram.add h1 (vi k)
  done;
  for _ = 1 to 1000 do
    let k = Prng.int rng 20 in
    c2.(k) <- c2.(k) + 1;
    Histogram.add h2 (vi k)
  done;
  let exact = ref 0 in
  for k = 0 to 19 do
    exact := !exact + (c1.(k) * c2.(k))
  done;
  let est = Histogram.estimate_join h1 h2 in
  let err = Float.abs (est -. float_of_int !exact) /. float_of_int !exact in
  Alcotest.(check bool)
    (Printf.sprintf "join estimate within 25%% (est %.0f exact %d)" est !exact)
    true (err < 0.25)

let test_histogram_range () =
  let h = Histogram.create ~buckets:8 in
  (* Wide domain so values overflow singletons into range buckets. *)
  for i = 1 to 2000 do
    Histogram.add h (vi i)
  done;
  let est = Histogram.estimate_range h (vi 1) (vi 1000) in
  Alcotest.(check bool)
    (Printf.sprintf "range estimate near half (got %.0f)" est)
    true (est > 600.0 && est < 1400.0)

let test_histogram_scale () =
  let h = Histogram.create ~buckets:10 in
  for _ = 1 to 100 do
    Histogram.add h (vi 1)
  done;
  let doubled = Histogram.scale h 2.0 in
  Alcotest.(check (float 1e-6)) "freq doubled" 200.0
    (Histogram.estimate_freq doubled (vi 1));
  Alcotest.(check (float 1e-6)) "original untouched" 100.0
    (Histogram.estimate_freq h (vi 1))

let test_histogram_distinct () =
  let h = Histogram.create ~buckets:50 in
  for i = 1 to 5000 do
    Histogram.add h (vi (i mod 500))
  done;
  let d = Histogram.estimate_distinct h in
  Alcotest.(check bool)
    (Printf.sprintf "distinct within 2x (got %.0f)" d)
    true (d > 250.0 && d < 1000.0)

(* ---------------- Order detector ---------------- *)

let feed_list od l = List.iter (fun v -> Order_detector.add od (vi v)) l

let test_order_ascending () =
  let od = Order_detector.create () in
  feed_list od [ 1; 2; 2; 5; 9 ];
  Alcotest.(check bool) "ascending" true (Order_detector.verdict od = Order_detector.Ascending);
  Alcotest.(check bool) "perfect" true (Order_detector.perfectly_sorted od);
  Alcotest.(check bool) "not strict (dup)" false (Order_detector.strictly_ascending od)

let test_order_strict () =
  let od = Order_detector.create () in
  feed_list od [ 1; 2; 3; 10 ];
  Alcotest.(check bool) "strict implies unique" true
    (Order_detector.strictly_ascending od)

let test_order_descending () =
  let od = Order_detector.create () in
  feed_list od [ 9; 7; 7; 1 ];
  Alcotest.(check bool) "descending" true
    (Order_detector.verdict od = Order_detector.Descending)

let test_order_unsorted () =
  let od = Order_detector.create () in
  feed_list od [ 1; 9; 2; 8; 3; 7; 0; 5 ];
  Alcotest.(check bool) "unsorted" true
    (Order_detector.verdict od = Order_detector.Unsorted);
  Alcotest.(check bool) "fraction sensible" true
    (Order_detector.ascending_fraction od > 0.0
     && Order_detector.ascending_fraction od < 1.0)

let test_order_mostly_sorted_threshold () =
  let od = Order_detector.create () in
  feed_list od (List.init 100 Fun.id @ [ 5 ] @ List.init 50 (fun i -> 101 + i));
  Alcotest.(check bool) "98% in-order is Ascending" true
    (Order_detector.verdict od = Order_detector.Ascending);
  (* The 0.95 threshold is inclusive: 19 of 20 pairs in order is
     Ascending, 19 of 21 is not. *)
  let od = Order_detector.create () in
  feed_list od (List.init 20 Fun.id @ [ 0 ]);
  Alcotest.(check bool) "95% in-order is Ascending" true
    (Order_detector.verdict od = Order_detector.Ascending);
  Order_detector.add od (vi (-1));
  Alcotest.(check bool) "90% in-order is Unsorted" true
    (Order_detector.verdict od = Order_detector.Unsorted)

(* ---------------- Distinct ---------------- *)

let test_distinct_exact () =
  let d = Distinct.create () in
  for i = 1 to 50 do
    Distinct.add d (vi (i mod 10))
  done;
  Alcotest.(check bool) "exact" true (Distinct.is_exact d);
  Alcotest.(check (float 0.0)) "ten distinct" 10.0 (Distinct.estimate d);
  (* The exact budget is 4,096 distinct values. *)
  let d = Distinct.create () in
  for i = 1 to 4096 do
    Distinct.add d (vi i)
  done;
  Alcotest.(check bool) "exact at the budget" true (Distinct.is_exact d);
  Alcotest.(check (float 0.0)) "4,096 distinct" 4096.0 (Distinct.estimate d);
  Distinct.add d (vi 4097);
  Alcotest.(check bool) "sketch past the budget" false (Distinct.is_exact d)

let test_distinct_sketch () =
  let d = Distinct.create () in
  let n = 20000 in
  for i = 1 to n do
    Distinct.add d (vi i)
  done;
  Alcotest.(check bool) "switched to sketch" false (Distinct.is_exact d);
  let est = Distinct.estimate d in
  let err = Float.abs (est -. float_of_int n) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "linear counting within 10%% (got %.0f)" est)
    true (err < 0.1);
  (* A million distinct values set every one of the 2^16 bits (the
     last one at about 675,000), and the estimate becomes the crude
     upper bound m ln m. *)
  for i = n + 1 to 1_000_000 do
    Distinct.add d (vi i)
  done;
  Alcotest.(check (float 0.0)) "saturated sketch" (65536.0 *. log 65536.0)
    (Distinct.estimate d)

(* ---------------- Reference models ---------------- *)

(* The order detector and distinct counter as first written: an option
   for the previous value, a hash for every value, and a full bitmap scan
   per estimate.  The reworked modules must agree with them exactly. *)
module Ref_order = struct
  type t = {
    mutable seen : int;
    mutable last : Value.t option;
    mutable asc_pairs : int;
    mutable desc_pairs : int;
    mutable strict_asc : bool;
  }

  let create () =
    { seen = 0; last = None; asc_pairs = 0; desc_pairs = 0; strict_asc = true }

  let add t v =
    (match t.last with
     | None -> ()
     | Some prev ->
       let c = Value.compare prev v in
       if c <= 0 then t.asc_pairs <- t.asc_pairs + 1;
       if c >= 0 then t.desc_pairs <- t.desc_pairs + 1;
       if c >= 0 then t.strict_asc <- false);
    t.seen <- t.seen + 1;
    t.last <- Some v

  let ascending_fraction t =
    let pairs = t.seen - 1 in
    if pairs <= 0 then 1.0 else float_of_int t.asc_pairs /. float_of_int pairs

  let verdict t =
    let threshold = 0.95 in
    let pairs = t.seen - 1 in
    if pairs <= 0 then Order_detector.Ascending
    else begin
      let asc = float_of_int t.asc_pairs /. float_of_int pairs in
      let desc = float_of_int t.desc_pairs /. float_of_int pairs in
      if asc >= threshold && asc >= desc then Order_detector.Ascending
      else if desc >= threshold then Descending
      else Unsorted
    end

  let perfectly_sorted t =
    let pairs = t.seen - 1 in
    pairs <= 0 || t.asc_pairs = pairs || t.desc_pairs = pairs
end

module Ref_distinct = struct
  module Vset = Hashtbl.Make (struct
    type t = Value.t

    let equal = Value.equal
    let hash = Value.hash
  end)

  type mode = Exact of unit Vset.t | Sketch of Bytes.t

  type t = { mutable seen : int; mutable mode : mode }

  let exact_budget = 4096
  let bits = 16
  let create () = { seen = 0; mode = Exact (Vset.create 256) }

  let bitmap_set bm i =
    let byte = i lsr 3 and bit = i land 7 in
    let c = Char.code (Bytes.get bm byte) in
    Bytes.set bm byte (Char.chr (c lor (1 lsl bit)))

  let bitmap_zeros bm =
    let zeros = ref 0 in
    Bytes.iter
      (fun c ->
        let c = Char.code c in
        for b = 0 to 7 do
          if c land (1 lsl b) = 0 then incr zeros
        done)
      bm;
    !zeros

  let add t v =
    t.seen <- t.seen + 1;
    match t.mode with
    | Exact set ->
      if not (Vset.mem set v) then begin
        Vset.replace set v ();
        if Vset.length set > exact_budget then begin
          let m = 1 lsl bits in
          let bm = Bytes.make (m lsr 3) '\000' in
          Vset.iter (fun v () -> bitmap_set bm (Value.hash v land (m - 1))) set;
          t.mode <- Sketch bm
        end
      end
    | Sketch bm -> bitmap_set bm (Value.hash v land ((1 lsl bits) - 1))

  let estimate t =
    match t.mode with
    | Exact set -> float_of_int (Vset.length set)
    | Sketch bm ->
      let m = float_of_int (1 lsl bits) in
      let z = float_of_int (bitmap_zeros bm) in
      if z <= 0.0 then m *. log m else -.m *. log (z /. m)

  let is_exact t = match t.mode with Exact _ -> true | Sketch _ -> false
end

(* Streams: sorted, reversed, shuffled or runs of duplicates, over atoms
   that include NULL, [Int 3]/[Float 3.0], NaN, signed zeros and integers
   that one float equals. *)
let gen_atom =
  QCheck2.Gen.(
    oneof
      [ map vi (int_range (-4) 4);
        map (fun i -> Value.Float (float_of_int i)) (int_range (-4) 4);
        oneofl
          [ Value.Null; Value.Int 3; Value.Float 3.0; Value.Float Float.nan;
            Value.Float 0.0; Value.Float (-0.0); Value.Str "a";
            Value.Str "b"; Value.Date 3;
            (* [Value.equal] is not transitive past 2^53 *)
            Value.Int (1 lsl 53); Value.Int ((1 lsl 53) + 1);
            Value.Float (Float.of_int (1 lsl 53)) ] ])

let shaped atoms =
  QCheck2.Gen.(
    oneof
      [ return atoms;
        return (List.sort Value.compare atoms);
        return (List.rev (List.sort Value.compare atoms));
        shuffle_l atoms ])

let runs_of_atoms =
  QCheck2.Gen.(
    map
      (List.concat_map (fun (v, n) -> List.init n (fun _ -> v)))
      (list_size (int_bound 40) (pair gen_atom (int_range 1 4))))

let gen_small = QCheck2.Gen.(runs_of_atoms >>= shaped)

(* Past the 4,096-value exact budget into the sketch, in each shape,
   with the odd atoms mixed in. *)
let gen_big =
  QCheck2.Gen.(
    let* d = int_range 4097 5000 and* dup = int_range 1 3
    and* odd = runs_of_atoms in
    shaped (List.init (d * dup) (fun i -> vi (i / dup)) @ odd))

let print_stream atoms =
  Printf.sprintf "%d values: %s" (List.length atoms)
    (String.concat " "
       (List.filteri (fun i _ -> i < 60) (List.map Value.to_string atoms)))

(* Feed both models; compare every observable after each value. *)
let agrees ~every atoms =
  let od = Order_detector.create () and ro = Ref_order.create () in
  let d = Distinct.create () and rd = Ref_distinct.create () in
  let ok = ref true in
  List.iteri
    (fun i v ->
      Order_detector.add od v;
      Ref_order.add ro v;
      Distinct.add d v;
      Ref_distinct.add rd v;
      if (i + 1) mod every = 0 || i = List.length atoms - 1 then
        ok :=
          !ok
          && Order_detector.verdict od = Ref_order.verdict ro
          && Float.equal (Order_detector.ascending_fraction od)
               (Ref_order.ascending_fraction ro)
          && Order_detector.perfectly_sorted od = Ref_order.perfectly_sorted ro
          && Order_detector.strictly_ascending od = ro.Ref_order.strict_asc
          && Order_detector.count od = ro.Ref_order.seen
          && Distinct.is_exact d = Ref_distinct.is_exact rd
          && Float.equal (Distinct.estimate d) (Ref_distinct.estimate rd))
    atoms;
  !ok

let prop_small_streams =
  QCheck2.Test.make ~count:300 ~print:print_stream
    ~name:"order detector and distinct = reference (small streams)" gen_small
    (agrees ~every:1)

let prop_big_streams =
  QCheck2.Test.make ~count:12 ~print:print_stream
    ~name:"order detector and distinct = reference (past the exact budget)"
    gen_big (agrees ~every:97)

(* ---------------- Join estimator (§4.5) ---------------- *)

let feed_prefix side values frac =
  let n = int_of_float (frac *. float_of_int (List.length values)) in
  List.iteri
    (fun i v -> if i < n then Join_estimator.observe side (vi v))
    values

let test_estimator_key_detection () =
  let s = Join_estimator.side ~use_histograms:true in
  List.iter (fun v -> Join_estimator.observe s (vi v)) [ 1; 2; 5; 9 ];
  Alcotest.(check bool) "sorted" true (Join_estimator.detected_sorted s);
  Alcotest.(check bool) "key" true (Join_estimator.detected_key s);
  Join_estimator.observe s (vi 9);
  Alcotest.(check bool) "duplicate kills key" false (Join_estimator.detected_key s);
  Alcotest.(check bool) "still sorted" true (Join_estimator.detected_sorted s);
  Join_estimator.observe s (vi 3);
  Alcotest.(check bool) "violation kills sorted" false
    (Join_estimator.detected_sorted s);
  Join_estimator.observe s (vi 20);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "range of the sorted prefix"
    (1.0, 9.0) (Join_estimator.sorted_range s)

let test_estimator_sorted_vs_random () =
  (* A sorted key stream joined with a random FK stream: the estimate
     should approximate the FK count even from a 25% prefix. *)
  let n = 4000 in
  let keys = List.init n (fun i -> i + 1) in
  let rng = Prng.create 21 in
  let fks = List.init n (fun _ -> 1 + Prng.int rng n) in
  let sk = Join_estimator.side ~use_histograms:true
  and sf = Join_estimator.side ~use_histograms:true in
  feed_prefix sk keys 0.25;
  feed_prefix sf fks 0.25;
  let est = Join_estimator.estimate ~left:(sk, 0.25) ~right:(sf, 0.25) in
  let err = Float.abs (est -. float_of_int n) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "key-vs-random estimate within 20%% (got %.0f)" est)
    true (err < 0.2)

let test_estimator_random_vs_random () =
  let n = 5000 and domain = 50 in
  let rng = Prng.create 22 in
  let mk () = List.init n (fun _ -> Prng.int rng domain) in
  let a = mk () and b = mk () in
  let exact =
    let count l =
      let t = Hashtbl.create 64 in
      List.iter
        (fun v ->
          Hashtbl.replace t v (1 + Option.value ~default:0 (Hashtbl.find_opt t v)))
        l;
      t
    in
    let ca = count a and cb = count b in
    Hashtbl.fold
      (fun v n acc ->
        acc + (n * Option.value ~default:0 (Hashtbl.find_opt cb v)))
      ca 0
  in
  let sa = Join_estimator.side ~use_histograms:true
  and sb = Join_estimator.side ~use_histograms:true in
  feed_prefix sa a 0.5;
  feed_prefix sb b 0.5;
  let est = Join_estimator.estimate ~left:(sa, 0.5) ~right:(sb, 0.5) in
  let err = Float.abs (est -. float_of_int exact) /. float_of_int exact in
  Alcotest.(check bool)
    (Printf.sprintf "random-vs-random within 30%% (got %.0f vs %d)" est exact)
    true (err < 0.3)

let test_estimator_multiplicity () =
  let s = Join_estimator.side ~use_histograms:true in
  (* Sorted with 3 duplicates per value. *)
  List.iter
    (fun v -> Join_estimator.observe s (vi v))
    (List.concat_map (fun v -> [ v; v; v ]) (List.init 200 Fun.id));
  Alcotest.(check bool) "sorted non-key" true
    (Join_estimator.detected_sorted s && not (Join_estimator.detected_key s));
  let m = Join_estimator.multiplicity s in
  Alcotest.(check bool)
    (Printf.sprintf "multiplicity near 3 (got %.2f)" m)
    true (m > 2.0 && m < 4.5);
  (* The distinct count is exact this small, with or without a histogram. *)
  let bare = Join_estimator.side ~use_histograms:false in
  List.iter
    (fun v -> Join_estimator.observe bare (vi v))
    (List.concat_map (fun v -> [ v; v; v ]) (List.init 200 Fun.id));
  Alcotest.(check (float 0.0)) "sorted-prefix multiplicity" 3.0
    (Join_estimator.sorted_multiplicity bare);
  Alcotest.(check (float 0.0)) "same with a histogram" 3.0
    (Join_estimator.sorted_multiplicity s)

(* ---------------- Selectivity ---------------- *)

let test_selectivity_registry () =
  let s = Selectivity.create () in
  Alcotest.(check bool) "empty" true (Selectivity.lookup s "sig" = None);
  Selectivity.observe s ~signature:"sig" ~output:50.0 ~input_product:1000.0;
  Alcotest.(check bool) "observed" true (Selectivity.lookup s "sig" = Some 0.05);
  Selectivity.observe s ~signature:"sig" ~output:100.0 ~input_product:1000.0;
  Alcotest.(check bool) "overwritten" true (Selectivity.lookup s "sig" = Some 0.1);
  Selectivity.observe s ~signature:"zero" ~output:1.0 ~input_product:0.0;
  Alcotest.(check bool) "zero product ignored" true
    (Selectivity.lookup s "zero" = None);
  Alcotest.(check int) "size" 1 (Selectivity.size s)

let test_selectivity_cards_and_flags () =
  let s = Selectivity.create () in
  Selectivity.observe_cardinality s ~relation:"r" ~seen:123;
  Alcotest.(check bool) "card" true (Selectivity.cardinality s "r" = Some 123);
  Selectivity.flag_multiplicative s ~predicate:"a=b" ~factor:3.0;
  Selectivity.flag_multiplicative s ~predicate:"a=b" ~factor:2.0;
  Alcotest.(check bool) "keeps max factor" true
    (Selectivity.multiplicative_factor s "a=b" = Some 3.0)

let suite =
  [ Alcotest.test_case "histogram exact small" `Quick test_histogram_exact_small;
    Alcotest.test_case "histogram nulls" `Quick test_histogram_nulls;
    Alcotest.test_case "histogram join estimate" `Quick test_histogram_join_estimate;
    Alcotest.test_case "histogram range" `Quick test_histogram_range;
    Alcotest.test_case "histogram scale" `Quick test_histogram_scale;
    Alcotest.test_case "histogram distinct" `Quick test_histogram_distinct;
    Alcotest.test_case "order ascending" `Quick test_order_ascending;
    Alcotest.test_case "order strict" `Quick test_order_strict;
    Alcotest.test_case "order descending" `Quick test_order_descending;
    Alcotest.test_case "order unsorted" `Quick test_order_unsorted;
    Alcotest.test_case "order mostly-sorted threshold" `Quick
      test_order_mostly_sorted_threshold;
    Alcotest.test_case "distinct exact" `Quick test_distinct_exact;
    Alcotest.test_case "distinct sketch" `Quick test_distinct_sketch;
    qtest prop_small_streams;
    qtest prop_big_streams;
    Alcotest.test_case "selectivity registry" `Quick test_selectivity_registry;
    Alcotest.test_case "selectivity cards/flags" `Quick
      test_selectivity_cards_and_flags ]
