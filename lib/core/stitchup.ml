open Adp_relation
open Adp_exec
open Adp_storage
open Adp_optimizer

type stats = {
  combos_possible : int;
  output : int;
  reused : int;
  recomputed_uniform : int;
  time : float;
}

(* Evaluation result of one stitch-up node: tuples grouped by lineage. *)
type node_result = {
  schema : Schema.t;
  uniform : (int * Tuple.t list) list;  (* phase id -> tuples *)
  mixed : Tuple.t list;
}

type env = {
  ctx : Ctx.t;
  query : Logical.query;
  phases : Phase.t list;
  registry : Registry.t;
  mutable reused : int;
  mutable recomputed : int;
}

let charge_sp env sp c = Ctx.charge_span env.ctx sp c

let leaf_result env source =
  let parts =
    List.filter_map
      (fun (ph : Phase.t) ->
        List.find_map
          (fun (name, schema, tuples, _sig) ->
            if name = source then Some (ph.Phase.id, schema, tuples) else None)
          (Phase.partitions ph))
      env.phases
  in
  match parts with
  | [] -> invalid_arg ("Stitchup: no partitions for source " ^ source)
  | (_, schema, _) :: _ ->
    { schema;
      uniform = List.map (fun (pid, _, tuples) -> pid, tuples) parts;
      mixed = [] }

(* Build one hash table per lineage over the right input.  The tables
   are only probed, never iterated, so they can be sized up front. *)
let build_side env sp schema ~key_cols (r : node_result) =
  let c = env.ctx.Ctx.costs in
  let mk tuples =
    (* One charge per tuple: the clock's float sum must stay bit-identical. *)
    List.iter (fun _ -> charge_sp env sp c.hash_build) tuples;
    (match sp with
     | Some sp -> Adp_obs.Profile.add_builds sp (List.length tuples)
     | None -> ());
    Hash_table.of_list schema ~key_cols tuples
  in
  List.map (fun (pid, tuples) -> pid, mk tuples) r.uniform, mk r.mixed

let probe_into env sp ~out tbl lkey tuples orient =
  let c = env.ctx.Ctx.costs in
  List.iter
    (fun t ->
      let matches = Hash_table.probe_tuple tbl t lkey in
      charge_sp env sp
        (c.hash_probe +. (c.per_match *. float_of_int (List.length matches)));
      (match sp with
       | Some sp ->
         Adp_obs.Profile.add_probes sp 1;
         Adp_obs.Profile.add_out sp (List.length matches)
       | None -> ());
      List.iter
        (fun m ->
          let combined =
            match orient with
            | `Left_probe -> Tuple.concat t m
            | `Right_probe -> Tuple.concat m t
          in
          out := combined :: !out)
        matches)
    tuples

let rec eval env ~is_root ~depth spec =
  match spec with
  | Plan.Scan { source; _ } -> leaf_result env source
  | Plan.Preagg { child = Plan.Scan { source; _ }; _ } -> leaf_result env source
  | Plan.Preagg _ ->
    invalid_arg "Stitchup: pre-aggregation only supported directly over scans"
  | Plan.Join { left; right; left_key; right_key } ->
    let sp =
      if Ctx.profiled env.ctx then
        Ctx.span env.ctx ~depth (Format.asprintf "%a" Plan.pp_spec spec)
      else None
    in
    let l = eval env ~is_root:false ~depth:(depth + 1) left in
    let r = eval env ~is_root:false ~depth:(depth + 1) right in
    let schema = Schema.concat l.schema r.schema in
    let lkey = Array.of_list (List.map (Schema.index l.schema) left_key) in
    let signature = Plan.signature_of spec in
    let rtabs, rmixed = build_side env sp r.schema ~key_cols:right_key r in
    (* Uniform combinations: reuse registered intermediates when possible;
       skip entirely at the root (exclusion list). *)
    let uniform =
      if is_root then []
      else
        List.filter_map
          (fun (pid, ltuples) ->
            match Registry.find env.registry ~signature ~phase:pid with
            | Some entry ->
              Registry.mark_reused entry;
              env.reused <- env.reused + entry.Registry.cardinality;
              let from = entry.Registry.schema
              and tuples = entry.Registry.tuples in
              (* The registering plan may lay the same columns out
                 differently (§3.2); matching layouts are shared as is. *)
              if Schema.equal from schema then Some (pid, tuples)
              else
                let perm = Schema.permutation ~from ~into:schema in
                Some (pid, List.map (fun t -> Tuple.project t perm) tuples)
            | None ->
              (match List.assoc_opt pid rtabs with
               | None -> Some (pid, [])
               | Some tbl ->
                 let out = ref [] in
                 probe_into env sp ~out tbl lkey ltuples `Left_probe;
                 env.recomputed <- env.recomputed + List.length !out;
                 Some (pid, List.rev !out)))
          l.uniform
    in
    (* Mixed combinations: structure-to-structure enumeration, skipping
       same-phase pairs (those are the uniform path above). *)
    let mixed = ref [] in
    List.iter
      (fun (pl, ltuples) ->
        List.iter
          (fun (pr, tbl) ->
            if pl <> pr then
              probe_into env sp ~out:mixed tbl lkey ltuples `Left_probe)
          rtabs;
        probe_into env sp ~out:mixed rmixed lkey ltuples `Left_probe)
      l.uniform;
    List.iter
      (fun (_, tbl) ->
        probe_into env sp ~out:mixed tbl lkey l.mixed `Left_probe)
      rtabs;
    probe_into env sp ~out:mixed rmixed lkey l.mixed `Left_probe;
    { schema; uniform; mixed = List.rev !mixed }

let run ctx query ~join_tree ~phases ~registry ~sink =
  let start = Ctx.now ctx in
  let n = List.length phases in
  let m = List.length (Logical.source_names query) in
  let combos_possible =
    let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
    if n <= 1 then 0 else pow n m - n
  in
  if n <= 1 then
    { combos_possible = 0; output = 0; reused = 0; recomputed_uniform = 0;
      time = 0.0 }
  else begin
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Adp_obs.Trace.Stitchup_begin { phases = n; combos = combos_possible });
    Ctx.set_phase ctx "stitch-up";
    let env = { ctx; query; phases; registry; reused = 0; recomputed = 0 } in
    let result = eval env ~is_root:true ~depth:0 join_tree in
    Sink.feed sink ~from:result.schema result.mixed;
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Adp_obs.Trace.Stitchup_end
           { output = List.length result.mixed; reused = env.reused;
             recomputed = env.recomputed });
    { combos_possible; output = List.length result.mixed;
      reused = env.reused; recomputed_uniform = env.recomputed;
      time = Ctx.now ctx -. start }
  end
