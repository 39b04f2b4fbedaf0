(* Example 2.1 from the paper: the flight whose traveler has the most
   children, over three autonomous sources with no statistics.

   The execution starts exactly at the paper's Phase 0 plan,
   F ⋈ (T ⋈ C).  The children source is messy — travelers appear once per
   child, as integrated sources often duplicate records — so T ⋈ C
   multiplies, which the monitor observes (the predicate gets flagged as
   multiplicative).  The re-optimizer then routes the remaining data into
   (F ⋈ T) ⋈ C, and the stitch-up phase joins the regions across the two
   plans, reusing the registered hash tables.

     dune exec examples/corrective_flights.exe *)

open Adp_relation
open Adp_datagen
open Adp_exec
open Adp_core
open Adp_query

let () =
  let data =
    Flights.generate
      { Flights.n_flights = 4000; n_travelers = 2500; trips_per_traveler = 4;
        frequent_flyers = false; seed = 2024 }
  in
  (* The messy children source: one record per child rather than one
     aggregate row per traveler. *)
  let children = Relation.create Flights.children_schema in
  let rng = Prng.create 77 in
  Relation.iter
    (fun t ->
      match t.(0) with
      | Value.Int parent ->
        let kids = Prng.int rng 6 in
        for child = 1 to max 1 kids do
          Relation.append children [| Value.Int parent; Value.Int child |]
        done
      | _ -> assert false)
    data.Flights.children;

  Format.printf "Example 2.1 query:@.  %s@.@." Workload.flights_sql;
  let query = Workload.flights_query in
  let catalog = Workload.flights_catalog data in
  (* c.parent is *not* a key in this messy source; the description lied. *)
  Adp_optimizer.Catalog.add catalog "c"
    { Adp_optimizer.Catalog.schema = Flights.children_schema;
      cardinality = None; key = None };
  let sources () =
    [ Source.create ~name:"f" data.Flights.flights Source.Local;
      Source.create ~name:"t" data.Flights.travelers Source.Local;
      Source.create ~name:"c" children Source.Local ]
  in

  (* Phase 0 is the paper's: Group[fid,from] max(num) (F ⋈ (T ⋈ C)). *)
  let phase0 =
    Plan.join (Plan.scan "f")
      (Plan.join (Plan.scan "t") (Plan.scan "c") ~on:[ "t.ssn", "c.parent" ])
      ~on:[ "f.fid", "t.flight" ]
  in
  let config =
    { Corrective.default_config with
      poll_interval = 5e3; min_leaf_seen = 300; switch_threshold = 0.85;
      initial_plan = Some phase0 }
  in
  let result, stats = Corrective.run ~config query catalog (sources ()) in

  Format.printf "Execution used %d phase(s):@." stats.Corrective.phases;
  List.iter
    (fun (p : Corrective.phase_info) ->
      Format.printf
        "  phase %d: read %d source tuples, emitted %d results@.    %s@."
        p.Corrective.id p.Corrective.read p.Corrective.emitted
        p.Corrective.plan_desc)
    stats.Corrective.phase_log;
  let stitch = stats.Corrective.stitch in
  Format.printf
    "Stitch-up: %d cross-phase combinations, %d tuples emitted in %.3f \
     virtual s;@.%d intermediate tuples reused from prior phases, %d \
     registered but not reused@.@."
    stitch.Stitchup.combos_possible stitch.Stitchup.output
    (stitch.Stitchup.time /. 1e6) stitch.Stitchup.reused
    stitch.Stitchup.discarded;

  let by_children =
    Relation.sort_by result [ "most_children" ] |> Relation.to_list |> List.rev
  in
  Format.printf "Top answers (fid, origin, max children):@.";
  List.iteri
    (fun i t -> if i < 5 then Format.printf "  %a@." Tuple.pp t)
    by_children;
  Format.printf "@.Total: %d flights with travelers, %.2f virtual seconds@."
    (Relation.cardinality result)
    (stats.Corrective.total_time /. 1e6)
