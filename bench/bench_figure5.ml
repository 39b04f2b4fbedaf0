(* Figure 5 / Table 3: pipelined hash join vs the complementary join pair
   (naive and priority-queue routing) on LINEITEM ⋈ ORDERS over sorted,
   skewed and partially reordered datasets (§5). *)

open Adp_relation
open Adp_datagen
open Adp_exec
open Adp_core
open Bench_common

type outcome = {
  time_s : float;
  stats : Comp_join.stats option;  (* None for the plain pipelined hash *)
  output : int;
}

(* The six datasets of Figure 5: (label, lineitem, orders). *)
let cases =
  lazy
    (let rng = Prng.create 7 in
     let mk label ds frac =
       let ds = Lazy.force ds in
       let li = ds.Tpch.lineitem and ord = ds.Tpch.orders in
       if frac = 0.0 then label, li, ord
       else
         ( label,
           Perturb.swap_fraction rng li frac,
           Perturb.swap_fraction rng ord frac )
     in
     [ mk "Uniform" uniform 0.0;
       mk "Skewed" skewed 0.0;
       mk "Uniform, 1% Reordered" uniform 0.01;
       mk "Skewed, 1% Reordered" skewed 0.01;
       mk "Skewed, 10% Reordered" skewed 0.1;
       mk "Skewed, 50% Reordered" skewed 0.5 ])

let lkey = [ "lineitem.l_orderkey" ]
let rkey = [ "orders.o_orderkey" ]

let run_hash li ord =
  let ctx = Ctx.create () in
  let j =
    Sym_join.create ctx ~mode:`Hash ~left_schema:(Relation.schema li)
      ~right_schema:(Relation.schema ord) ~left_key:lkey ~right_key:rkey
  in
  let l_src = Source.create ~name:"l" li Source.Local in
  let o_src = Source.create ~name:"o" ord Source.Local in
  let consume src t =
    let side = if Source.name src = "l" then Sym_join.L else Sym_join.R in
    ignore (Sym_join.insert j side t)
  in
  ignore (Driver.run ctx ~sources:[ l_src; o_src ] ~consume ());
  { time_s = Ctx.now ctx /. 1e6; stats = None; output = Sym_join.out_count j }

let run_comp variant li ord =
  let ctx = Ctx.create () in
  let j =
    Comp_join.create ctx ~variant ~left_schema:(Relation.schema li)
      ~right_schema:(Relation.schema ord) ~left_key:lkey ~right_key:rkey
  in
  let l_src = Source.create ~name:"l" li Source.Local in
  let o_src = Source.create ~name:"o" ord Source.Local in
  let count = ref 0 in
  let consume src t =
    let side = if Source.name src = "l" then Comp_join.L else Comp_join.R in
    count := !count + List.length (Comp_join.insert j side t)
  in
  ignore (Driver.run ctx ~sources:[ l_src; o_src ] ~consume ());
  count := !count + List.length (Comp_join.finish j);
  { time_s = Ctx.now ctx /. 1e6; stats = Some (Comp_join.stats j);
    output = !count }

let all_results =
  lazy
    (List.map
       (fun (label, li, ord) ->
         ( label,
           [ "Pipelined hash join", run_hash li ord;
             "Complementary joins", run_comp Comp_join.Naive li ord;
             "Comp. joins with priority queue",
             run_comp (Comp_join.Priority_queue 1024) li ord ] ))
       (Lazy.force cases))

let run () =
  let results = Lazy.force all_results in
  let strategies =
    [ "Pipelined hash join"; "Complementary joins";
      "Comp. joins with priority queue" ]
  in
  let rows =
    List.map
      (fun (label, per_strategy) ->
        label
        :: List.map
             (fun s -> seconds (List.assoc s per_strategy).time_s)
             strategies)
      results
  in
  Report.table
    ~title:
      "Figure 5: LINEITEM ⋈ ORDERS — pipelined hash join vs complementary \
       join strategies (virtual time)"
    ~header:("dataset" :: strategies) rows;
  (* Consistency: every strategy must produce the same join cardinality. *)
  List.iter
    (fun (label, per_strategy) ->
      match List.map (fun (_, o) -> o.output) per_strategy with
      | first :: rest when List.for_all (( = ) first) rest -> ()
      | counts ->
        Printf.printf "WARNING: %s output mismatch: %s\n" label
          (String.concat "," (List.map string_of_int counts)))
    results;
  Bjson.emit ~bench:"figure5"
    (List.concat_map
       (fun (label, per_strategy) ->
         let outputs = List.map (fun (_, o) -> o.output) per_strategy in
         let agree =
           match outputs with
           | first :: rest -> List.for_all (( = ) first) rest
           | [] -> true
         in
         Bjson.flag (Bjson.slug (label ^ "/outputs-agree")) agree
         :: List.map
              (fun (s, o) ->
                Bjson.time (Bjson.slug (label ^ "/" ^ s)) o.time_s)
              per_strategy)
       results)

let table3 () =
  let results = Lazy.force all_results in
  let json = ref [] in
  let rows =
    List.concat_map
      (fun (label, per_strategy) ->
        List.filter_map
          (fun (sname, o) ->
            match o.stats with
            | None -> None
            | Some st ->
              let short =
                if sname = "Complementary joins" then "Naive"
                else "Priority queue"
              in
              let cell metric v =
                Bjson.count
                  (Bjson.slug
                     (Printf.sprintf "%s/%s/%s" label short metric))
                  v
              in
              json :=
                cell "routed-hash"
                  (fst st.Comp_join.hash_routed + snd st.Comp_join.hash_routed)
                :: cell "routed-merge"
                     (fst st.Comp_join.merge_routed
                     + snd st.Comp_join.merge_routed)
                :: cell "stitch-out" st.Comp_join.stitch_out
                :: cell "merge-out" st.Comp_join.merge_out
                :: cell "hash-out" st.Comp_join.hash_out
                :: !json;
              Some
                [ label; short;
                  Report.human_int st.Comp_join.hash_out;
                  Report.human_int st.Comp_join.merge_out;
                  Report.human_int st.Comp_join.stitch_out;
                  Report.human_int (fst st.Comp_join.merge_routed
                                    + snd st.Comp_join.merge_routed);
                  Report.human_int (fst st.Comp_join.hash_routed
                                    + snd st.Comp_join.hash_routed) ])
          per_strategy)
      results
  in
  Report.table
    ~title:
      "Table 3: distribution of processing in complementary joins (outputs \
       by component; tuples routed)"
    ~header:
      [ "dataset"; "variant"; "hash out"; "merge out"; "stitch out";
        "routed→merge"; "routed→hash" ]
    rows;
  Bjson.emit ~bench:"table3" (List.rev !json)
