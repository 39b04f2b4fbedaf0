open Adp_relation

type config = {
  n_flights : int;
  n_travelers : int;
  trips_per_traveler : int;
  frequent_flyers : bool;
  seed : int;
}

let default_config =
  { n_flights = 2000; n_travelers = 1000; trips_per_traveler = 3;
    frequent_flyers = false; seed = 7 }

type t = {
  config : config;
  flights : Relation.t;
  travelers : Relation.t;
  children : Relation.t;
}

let flights_schema =
  Schema.make [ "f.fid"; "f.from_city"; "f.to_city"; "f.when_day" ]

let travelers_schema = Schema.make [ "t.ssn"; "t.flight" ]
let children_schema = Schema.make [ "c.parent"; "c.num" ]

let cities =
  [| "SEA"; "SFO"; "LAX"; "ORD"; "JFK"; "BOS"; "PHL"; "IAD"; "ATL"; "DFW" |]

let generate config =
  let rng = Prng.create config.seed in
  (* One immutable block per distinct int and city, shared by every row
     that holds it (see Tpch.generate). *)
  let ints =
    Array.init
      (max 365 (max config.n_flights config.n_travelers) + 1)
      (fun i -> Value.Int i)
  in
  let city_values = Array.map (fun c -> Value.Str c) cities in
  let n_cities = Array.length cities in
  let flights = Relation.create flights_schema in
  for fid = 1 to config.n_flights do
    let from_city = Prng.int rng n_cities in
    let to_city = ref (Prng.int rng n_cities) in
    while !to_city = from_city do
      to_city := Prng.int rng n_cities
    done;
    Relation.append flights
      [| ints.(fid); city_values.(from_city); city_values.(!to_city);
         ints.(Prng.int rng 365) |]
  done;
  let travelers = Relation.create travelers_schema in
  let trips_zipf =
    if config.frequent_flyers then
      Some (Zipf.create ~n:(8 * config.trips_per_traveler) ~z:1.2)
    else None
  in
  let trips = ref [] in
  for ssn = 1 to config.n_travelers do
    let count =
      match trips_zipf with
      | Some zipf -> Zipf.sample zipf rng
      | None -> 1 + Prng.int rng (2 * config.trips_per_traveler - 1)
    in
    for _ = 1 to count do
      trips := (ssn, 1 + Prng.int rng config.n_flights) :: !trips
    done
  done;
  (* Random distribution order, per the example's premise. *)
  let trips_arr = Array.of_list !trips in
  Prng.shuffle rng trips_arr;
  Array.iter
    (fun (ssn, flight) ->
      Relation.append travelers [| ints.(ssn); ints.(flight) |])
    trips_arr;
  let children = Relation.create children_schema in
  let parents = Array.init config.n_travelers (fun i -> i + 1) in
  Prng.shuffle rng parents;
  Array.iter
    (fun p -> Relation.append children [| ints.(p); ints.(Prng.int rng 6) |])
    parents;
  { config; flights; travelers; children }
