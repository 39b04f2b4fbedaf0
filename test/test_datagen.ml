open Adp_relation
open Adp_datagen
open Helpers

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create 1 and b = Prng.create 1 in
  let seq rng = List.init 20 (fun _ -> Prng.int rng 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b);
  let c = Prng.create 2 in
  Alcotest.(check bool) "different seed differs" true (seq (Prng.create 1) <> seq c)

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 13 in
    if v < 0 || v >= 13 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 1000 do
    let v = Prng.range rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "range out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done

let test_prng_split_independent () =
  let rng = Prng.create 3 in
  let s1 = Prng.split rng in
  let before = List.init 5 (fun _ -> Prng.int s1 100) in
  (* Advancing the parent must not change the child's future stream. *)
  let rng' = Prng.create 3 in
  let s1' = Prng.split rng' in
  ignore (Prng.int rng' 100);
  let after = List.init 5 (fun _ -> Prng.int s1' 100) in
  Alcotest.(check (list int)) "child stream stable" before after

let test_shuffle_permutation () =
  let rng = Prng.create 11 in
  let arr = Array.init 100 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "multiset preserved" true
    (sorted = Array.init 100 Fun.id);
  Alcotest.(check bool) "actually moved" true (arr <> Array.init 100 Fun.id)

let test_exponential_mean () =
  let rng = Prng.create 5 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.0) < 0.2)

(* The splitmix64 generator with its state boxed in a mutable [int64]
   field: a reference the unboxed [Prng] must match draw for draw. *)
module Ref_prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t = { state = next t }
  let int t bound = Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
end

type prng_op = Draw_int of int | Draw_float | Split

(* Each op draws from the current stream; [Split] draws a child from it
   and continues on the child, so parents and children interleave. *)
let prng_matches_reference =
  let open QCheck2 in
  let op =
    Gen.oneof
      [ Gen.map (fun b -> Draw_int b) (Gen.int_range 1 max_int);
        Gen.map (fun b -> Draw_int b) (Gen.int_range 1 100);
        Gen.return Draw_float; Gen.return Split ]
  in
  Test.make ~name:"prng = boxed splitmix64 reference (qcheck)" ~count:200
    ~long_factor:10
    Gen.(pair int (list_size (int_range 0 200) op))
    (fun (seed, ops) ->
      let rec go t r = function
        | [] -> true
        | Draw_int b :: rest -> Prng.int t b = Ref_prng.int r b && go t r rest
        | Draw_float :: rest ->
          Int64.bits_of_float (Prng.float t)
          = Int64.bits_of_float (Ref_prng.float r)
          && go t r rest
        | Split :: rest -> go (Prng.split t) (Ref_prng.split r) rest
      in
      go (Prng.create seed) (Ref_prng.create seed) ops)

(* ---------------- Zipf ---------------- *)

let test_zipf_probs () =
  let z = Zipf.create ~n:100 ~z:0.5 in
  let total = ref 0.0 in
  for r = 1 to 100 do
    total := !total +. Zipf.prob z r
  done;
  Alcotest.(check (float 1e-9)) "probs sum to 1" 1.0 !total;
  Alcotest.(check bool) "rank 1 heaviest" true (Zipf.prob z 1 > Zipf.prob z 100)

let test_zipf_uniform_degenerate () =
  let z = Zipf.create ~n:50 ~z:0.0 in
  Alcotest.(check (float 1e-9)) "uniform prob" 0.02 (Zipf.prob z 25)

let test_zipf_sampling_skew () =
  let z = Zipf.create ~n:1000 ~z:1.0 in
  let rng = Prng.create 9 in
  let top = ref 0 and n = 20000 in
  for _ = 1 to n do
    if Zipf.sample z rng <= 10 then incr top
  done;
  (* With z=1 over 1000 ranks the top-10 mass is ~39%. *)
  let frac = float_of_int !top /. float_of_int n in
  Alcotest.(check bool) "skewed mass" true (frac > 0.3 && frac < 0.5)

let test_zipf_sample_bounds () =
  let z = Zipf.create ~n:7 ~z:0.5 in
  let rng = Prng.create 13 in
  for _ = 1 to 1000 do
    let r = Zipf.sample z rng in
    if r < 1 || r > 7 then Alcotest.fail "rank out of bounds"
  done

(* ---------------- Tpch ---------------- *)

let small = Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Uniform; seed = 1 }

let test_tpch_cardinalities () =
  Alcotest.(check int) "region" 5 (Relation.cardinality small.Tpch.region);
  Alcotest.(check int) "nation" 25 (Relation.cardinality small.Tpch.nation);
  let c = Relation.cardinality small.Tpch.customer in
  Alcotest.(check int) "customer" 300 c;
  Alcotest.(check int) "orders 10x customers" (10 * c)
    (Relation.cardinality small.Tpch.orders);
  let l = Relation.cardinality small.Tpch.lineitem in
  Alcotest.(check bool) "lineitem 1-7 per order" true
    (l >= 10 * c && l <= 70 * c)

let test_tpch_sorted_by_key () =
  Alcotest.(check (float 0.0)) "orders sorted" 1.0
    (Perturb.sortedness small.Tpch.orders "orders.o_orderkey");
  Alcotest.(check (float 0.0)) "lineitem sorted" 1.0
    (Perturb.sortedness small.Tpch.lineitem "lineitem.l_orderkey")

let test_tpch_fk_integrity () =
  let max_cust = Relation.cardinality small.Tpch.customer in
  Relation.iter
    (fun t ->
      match t.(1) with
      | Value.Int ck ->
        if ck < 1 || ck > max_cust then Alcotest.fail "bad o_custkey"
      | _ -> Alcotest.fail "o_custkey not int")
    small.Tpch.orders;
  let n_orders = Relation.cardinality small.Tpch.orders in
  Relation.iter
    (fun t ->
      match t.(0) with
      | Value.Int ok ->
        if ok < 1 || ok > n_orders then Alcotest.fail "bad l_orderkey"
      | _ -> Alcotest.fail "l_orderkey not int")
    small.Tpch.lineitem

let test_tpch_determinism () =
  let again = Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Uniform; seed = 1 } in
  Alcotest.(check bool) "same seed same data" true
    (Relation.equal_bag small.Tpch.lineitem again.Tpch.lineitem)

let test_tpch_skew () =
  let skewed =
    Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Skewed 1.0; seed = 1 }
  in
  (* Count orders of the most popular customer: should far exceed uniform. *)
  let count rel =
    let tbl = Hashtbl.create 64 in
    Relation.iter
      (fun t ->
        let k = t.(1) in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      rel;
    Hashtbl.fold (fun _ v acc -> max v acc) tbl 0
  in
  Alcotest.(check bool) "skew concentrates foreign keys" true
    (count skewed.Tpch.orders > 2 * count small.Tpch.orders)

let test_tpch_schema_api () =
  Alcotest.(check bool) "table lookup" true
    (Relation.cardinality (Tpch.table small "orders")
     = Relation.cardinality small.Tpch.orders);
  Alcotest.(check string) "key" "orders.o_orderkey" (Tpch.key_of "orders");
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Tpch.table small "nope"));
  List.iter
    (fun name ->
      let sch = Tpch.schema_of name in
      Alcotest.(check bool) (name ^ " key in schema") true
        (Schema.mem sch (Tpch.key_of name)))
    Tpch.table_names

(* ---------------- Digest pin ---------------- *)

(* An MD5 over every row of every table, in table and row order: a tag
   and the content of each value, floats by their bit pattern.  The
   digests below were computed from the generator whose every row boxed
   its own values; they pin the exact PRNG draw order, which no property
   over two runs of the same code can (a reordered draw still generates
   valid, deterministic data). *)
let digest_tables tables =
  let acc = ref "" in
  let buf = Buffer.create 65_536 in
  let flush () =
    acc := Digest.string (!acc ^ Buffer.contents buf);
    Buffer.clear buf
  in
  List.iter
    (fun (name, rel) ->
      Buffer.add_string buf name;
      Relation.iter
        (fun row ->
          Array.iter
            (function
              | Value.Null -> Buffer.add_char buf 'N'
              | Value.Int i ->
                Buffer.add_char buf 'I';
                Buffer.add_int64_le buf (Int64.of_int i)
              | Value.Float f ->
                Buffer.add_char buf 'F';
                Buffer.add_int64_le buf (Int64.bits_of_float f)
              | Value.Str s ->
                Buffer.add_char buf 'S';
                Buffer.add_int32_le buf (Int32.of_int (String.length s));
                Buffer.add_string buf s
              | Value.Date d ->
                Buffer.add_char buf 'D';
                Buffer.add_int64_le buf (Int64.of_int d))
            row;
          if Buffer.length buf >= 65_536 then flush ())
        rel)
    tables;
  flush ();
  Digest.to_hex !acc

let tpch_digest scale distribution seed =
  let d = Tpch.generate { Tpch.scale; distribution; seed } in
  digest_tables (List.map (fun n -> n, Tpch.table d n) Tpch.table_names)

let flights_digest config =
  let d = Flights.generate config in
  digest_tables
    [ "flights", d.Flights.flights; "travelers", d.Flights.travelers;
      "children", d.Flights.children ]

let tpch_pins =
  [ Tpch.Uniform, 1, "04b2e6319c1360e9d5da9e118df5aa53";
    Tpch.Uniform, 2, "53cf93704004237ee93b5a724a5ff4ee";
    Tpch.Skewed 0.5, 1, "32a541a76fbc5f8b7dd7e695e47facf7";
    Tpch.Skewed 0.5, 2, "b1d7793861b693749784c90516628b33" ]

let dist_name = function
  | Tpch.Uniform -> "uniform"
  | Tpch.Skewed z -> Printf.sprintf "skewed %g" z

let test_tpch_digest_pin () =
  List.iter
    (fun (dist, seed, want) ->
      Alcotest.(check string)
        (Printf.sprintf "SF 0.01 %s seed %d" (dist_name dist) seed)
        want (tpch_digest 0.01 dist seed))
    tpch_pins

let test_flights_digest_pin () =
  Alcotest.(check string) "default" "d8e2aa3958ad73a0e2c51a1c06af8a18"
    (flights_digest Flights.default_config);
  Alcotest.(check string) "frequent flyers" "e1a9626fdb484d6cfa9c3bf946edacb9"
    (flights_digest { Flights.default_config with frequent_flyers = true })

(* The paper's scale, only in qcheck's long mode (QCHECK_LONG=1 or
   true, the switch the qcheck properties read): each digest generates
   about 600,000 lineitem rows. *)
let long_mode =
  match Sys.getenv_opt "QCHECK_LONG" with
  | Some ("1" | "true") -> true
  | _ -> false

let test_tpch_digest_pin_paper_scale () =
  if long_mode then
    List.iter
      (fun (dist, want) ->
        Alcotest.(check string)
          (Printf.sprintf "SF 0.1 %s seed 1" (dist_name dist))
          want (tpch_digest 0.1 dist 1))
      [ Tpch.Uniform, "50a084b16a1939bda0c99673b696d0d6";
        Tpch.Skewed 0.5, "6c4bfaf718bdeb3a62a8b7108ef6833e" ]

(* Repeated values are shared blocks, not per-row copies: the dataset's
   reachable words stay well under the 2,466,909 it took when every row
   boxed its own values. *)
let test_tpch_shares_values () =
  let d = Tpch.generate { Tpch.scale = 0.01; distribution = Tpch.Uniform; seed = 1 } in
  let words = Obj.reachable_words (Obj.repr d) in
  if words > 1_300_000 then
    Alcotest.failf "SF 0.01 dataset reaches %d words (limit 1,300,000)" words;
  Relation.iter
    (fun l ->
      match l.(0) with
      | Value.Int ok ->
        let o = Relation.get d.Tpch.orders (ok - 1) in
        if not (l.(0) == o.(0)) then
          Alcotest.failf "l_orderkey %d is not its order's o_orderkey block" ok
      | _ -> Alcotest.fail "l_orderkey not int")
    d.Tpch.lineitem

(* ---------------- Perturb ---------------- *)

let test_perturb () =
  let rng = Prng.create 3 in
  let sorted =
    rel [ "t.k" ] (List.init 1000 (fun i -> [ vi i ]))
  in
  Alcotest.(check (float 0.0)) "sorted" 1.0 (Perturb.sortedness sorted "t.k");
  let p1 = Perturb.swap_fraction rng sorted 0.01 in
  let s1 = Perturb.sortedness p1 "t.k" in
  Alcotest.(check bool) "1% mostly sorted" true (s1 > 0.95 && s1 < 1.0);
  let p50 = Perturb.swap_fraction rng sorted 0.5 in
  let s50 = Perturb.sortedness p50 "t.k" in
  Alcotest.(check bool) "50% heavily permuted" true (s50 < 0.9);
  Alcotest.(check bool) "multiset preserved" true (Relation.equal_bag sorted p50);
  let sh = Perturb.shuffle rng sorted in
  let ssh = Perturb.sortedness sh "t.k" in
  Alcotest.(check bool) "shuffle ~ random" true (ssh > 0.3 && ssh < 0.7);
  Alcotest.(check bool) "identity" true
    (Relation.to_list (Perturb.swap_fraction rng sorted 0.0)
     = Relation.to_list sorted)

(* ---------------- Flights ---------------- *)

let test_flights () =
  let d = Flights.generate { Flights.default_config with n_flights = 100; n_travelers = 50 } in
  Alcotest.(check int) "flights" 100 (Relation.cardinality d.Flights.flights);
  Alcotest.(check int) "children one per traveler" 50
    (Relation.cardinality d.Flights.children);
  Alcotest.(check bool) "travelers nonempty" true
    (Relation.cardinality d.Flights.travelers > 0);
  (* Every trip references a valid flight. *)
  Relation.iter
    (fun t ->
      match t.(1) with
      | Value.Int f -> if f < 1 || f > 100 then Alcotest.fail "bad flight fk"
      | _ -> Alcotest.fail "flight fk not int")
    d.Flights.travelers

let test_flights_frequent_flyers () =
  let base = { Flights.default_config with n_flights = 200; n_travelers = 400 } in
  let uni = Flights.generate base in
  let ff = Flights.generate { base with frequent_flyers = true } in
  let max_trips (d : Flights.t) =
    let tbl = Hashtbl.create 64 in
    Relation.iter
      (fun t ->
        let k = t.(0) in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      d.Flights.travelers;
    Hashtbl.fold (fun _ v acc -> max v acc) tbl 0
  in
  Alcotest.(check bool) "frequent flyers skew trips" true
    (max_trips ff > max_trips uni)

let suite =
  [ Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    qtest prng_matches_reference;
    Alcotest.test_case "zipf probabilities" `Quick test_zipf_probs;
    Alcotest.test_case "zipf z=0 uniform" `Quick test_zipf_uniform_degenerate;
    Alcotest.test_case "zipf sampling skew" `Quick test_zipf_sampling_skew;
    Alcotest.test_case "zipf sample bounds" `Quick test_zipf_sample_bounds;
    Alcotest.test_case "tpch cardinalities" `Quick test_tpch_cardinalities;
    Alcotest.test_case "tpch emitted sorted" `Quick test_tpch_sorted_by_key;
    Alcotest.test_case "tpch fk integrity" `Quick test_tpch_fk_integrity;
    Alcotest.test_case "tpch determinism" `Quick test_tpch_determinism;
    Alcotest.test_case "tpch skew" `Quick test_tpch_skew;
    Alcotest.test_case "tpch schema api" `Quick test_tpch_schema_api;
    Alcotest.test_case "tpch digest pin" `Quick test_tpch_digest_pin;
    Alcotest.test_case "tpch digest pin at SF 0.1 (long)" `Slow
      test_tpch_digest_pin_paper_scale;
    Alcotest.test_case "flights digest pin" `Quick test_flights_digest_pin;
    Alcotest.test_case "tpch shares repeated values" `Quick
      test_tpch_shares_values;
    Alcotest.test_case "perturbation" `Quick test_perturb;
    Alcotest.test_case "flights generator" `Quick test_flights;
    Alcotest.test_case "flights frequent flyers" `Quick test_flights_frequent_flyers ]
