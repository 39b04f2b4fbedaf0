open Adp_relation
open Adp_exec
open Adp_storage
open Adp_optimizer

type stats = {
  combos_possible : int;
  output : int;
  reused : int;
  discarded : int;
  recomputed_uniform : int;
  time : float;
}

let none =
  { combos_possible = 0; output = 0; reused = 0; discarded = 0;
    recomputed_uniform = 0; time = 0.0 }

(* The phase's strictly intermediate join results: the root's output
   already reached the shared sink. *)
let intermediates (ph : Phase.t) =
  let total = List.length (Plan.relations ph.spec) in
  List.filter
    (fun (_, _, _, complexity) -> complexity < total)
    (Plan.node_results ph.plan)

let registered ph ~signature =
  List.find_map
    (fun (sg, schema, rows, _) ->
      if String.equal sg signature then Some (schema, rows) else None)
    (intermediates ph)

let held ph =
  List.fold_left
    (fun n (_, _, rows, _) -> n + Row_log.view_length rows)
    0 (intermediates ph)

(* §3.4.2: a candidate tree's credit is what building and matching every
   intermediate it can reuse would cost; its subexpressions in pre-order,
   the phases in ascending id. *)
let reuse_credit (c : Cost_model.t) phases spec =
  let rec credit acc = function
    | Plan.Scan _ -> acc
    | Plan.Preagg { child; _ } -> credit acc child
    | Plan.Join { left; right; _ } as s ->
      let signature = Plan.signature_of s in
      let reuse acc ph =
        match registered ph ~signature with
        | Some (_, rows) ->
          acc +. (float_of_int (Row_log.view_length rows)
                  *. (c.hash_build +. c.per_match))
        | None -> acc
      in
      credit (credit (List.fold_left reuse acc phases) left) right
  in
  credit 0.0 spec

let join_tree ~preagg ~costs ~reuse query catalog sels phases =
  let optimized = (Optimizer.optimize ~preagg ~costs query catalog sels).spec in
  if not reuse then optimized
  else begin
    let est = Cardinality.create query catalog sels in
    let score spec =
      Cost.query_cost costs est spec -. reuse_credit costs phases spec
    in
    let pick (best, least) (ph : Phase.t) =
      let s = score ph.spec in
      if s < least then ph.spec, s else best, least
    in
    fst (List.fold_left pick (optimized, score optimized) (List.rev phases))
  end

(* One phase's tuples at a stitch-up node.  [live] is the signature of
   the node in that phase's plan that emitted exactly these tuples, in
   this order: the join above it there holds them in a table. *)
type part = { phase : Phase.t; tuples : Row_log.view; live : string option }

(* Evaluation result of one stitch-up node: tuples grouped by lineage. *)
type node_result = {
  schema : Schema.t;
  uniform : part list;
  mixed : Row_log.view;
}

(* The rows [f] pushes, in order, as the view of a fresh log. *)
let collect f =
  let log = Row_log.create () in
  f (fun t -> ignore (Row_log.push log t : int));
  Row_log.view log

type env = {
  ctx : Ctx.t;
  keep : Plan.keep;  (* the query's join layout rule, as in every phase *)
  phases : Phase.t list;
  reuse : bool;
  mutable reused : int;
  mutable recomputed : int;
  mutable output : int;
}

let charge_sp env sp c = Ctx.charge_span env.ctx sp c

let leaf_result env source =
  let parts =
    List.filter_map
      (fun (ph : Phase.t) ->
        Option.map
          (fun (schema, tuples, signature) ->
            schema, { phase = ph; tuples; live = Some signature })
          (Plan.leaf_partition ph.Phase.plan source))
      env.phases
  in
  match parts with
  | [] -> invalid_arg ("Stitchup: no partitions for source " ^ source)
  | (schema, _) :: _ ->
    { schema; uniform = List.map snd parts; mixed = Row_log.view_of_list [] }

(* One hash table per lineage over the right input: the phase's own live
   table over these tuples when its layout and key match, else a fresh
   one.  Both give a key's rows newest first; both are only probed, so a
   fresh one can be sized up front. *)
let build_side env sp schema ~key_cols (r : node_result) =
  let c = env.ctx.Ctx.costs in
  let charge tuples =
    let n = Row_log.view_length tuples in
    (* One charge per tuple: the clock's float sum must stay bit-identical. *)
    for _ = 1 to n do charge_sp env sp c.hash_build done;
    match sp with
    | Some sp -> Adp_obs.Profile.add_builds sp n
    | None -> ()
  in
  let table p =
    charge p.tuples;
    match
      Option.bind p.live (fun signature ->
          Plan.child_table p.phase.plan ~signature ~schema ~key_cols)
    with
    | Some tbl -> tbl
    | None -> Hash_table.of_view schema ~key_cols p.tuples
  in
  charge r.mixed;
  ( List.map (fun p -> p.phase.id, table p) r.uniform,
    Hash_table.of_view schema ~key_cols r.mixed )

let rec emit_from ~emit layout tbl t cur =
  if cur >= 0 then begin
    emit (Plan.join_tuple layout t (Hash_table.row tbl cur));
    emit_from ~emit layout tbl t (Hash_table.next tbl cur)
  end

(* Each probe is charged before its matches are emitted, newest first. *)
let probe_into env sp ~emit layout tbl lkey tuples =
  let c = env.ctx.Ctx.costs in
  Row_log.view_iter
    (fun t ->
      let first = Hash_table.probe_tuple tbl t lkey in
      let n = Hash_table.count tbl first in
      charge_sp env sp (c.hash_probe +. (c.per_match *. float_of_int n));
      (match sp with
       | Some sp ->
         Adp_obs.Profile.add_probes sp 1;
         Adp_obs.Profile.add_out sp n
       | None -> ());
      emit_from ~emit layout tbl t first)
    tuples

(* At the root ([sink] given) the cross-phase combinations stream into
   the sink as they are produced; its charges are settled by [run]. *)
let rec eval env ?sink ~depth spec =
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
    let l = eval env ~depth:(depth + 1) left in
    let r = eval env ~depth:(depth + 1) right in
    let layout =
      Plan.join_layout env.keep ~relations:(Plan.relations spec) l.schema
        r.schema
    in
    let schema = Plan.layout_schema layout in
    let lkey = Array.of_list (List.map (Schema.index l.schema) left_key) in
    let signature = Plan.signature_of spec in
    let rtabs, rmixed = build_side env sp r.schema ~key_cols:right_key r in
    (* Uniform combinations: reuse the phase's own intermediate when its
       plan holds one; skip entirely at the root (exclusion list). *)
    let uniform =
      if Option.is_some sink then []
      else
        List.map
          (fun p ->
            let phase = p.phase.id in
            match
              if env.reuse then registered p.phase ~signature else None
            with
            | Some (from, tuples) ->
              env.reused <- env.reused + Row_log.view_length tuples;
              (* The phase's plan may lay the same columns out
                 differently (§3.2); matching layouts are shared as is. *)
              if Schema.equal from schema then
                { p with tuples; live = Some signature }
              else
                let perm = Schema.permutation ~from ~into:schema in
                let project push t = push (Tuple.project t perm) in
                let tuples =
                  collect (fun push -> Row_log.view_iter (project push) tuples)
                in
                { p with tuples; live = None }
            | None ->
              let tuples =
                collect (fun emit ->
                    Option.iter
                      (fun tbl ->
                        probe_into env sp ~emit layout tbl lkey p.tuples)
                      (List.assoc_opt phase rtabs))
              in
              env.recomputed <- env.recomputed + Row_log.view_length tuples;
              { p with tuples; live = None })
          l.uniform
    in
    (* Mixed combinations: structure-to-structure enumeration, skipping
       same-phase pairs (those are the uniform path above). *)
    let mixed = Row_log.create () in
    let emit =
      match sink with
      | Some sink ->
        let add = Sink.stream sink ~from:schema in
        fun t ->
          env.output <- env.output + 1;
          add t
      | None -> fun t -> ignore (Row_log.push mixed t : int)
    in
    List.iter
      (fun p ->
        List.iter
          (fun (pr, tbl) ->
            if p.phase.id <> pr then
              probe_into env sp ~emit layout tbl lkey p.tuples)
          rtabs;
        probe_into env sp ~emit layout rmixed lkey p.tuples)
      l.uniform;
    List.iter
      (fun (_, tbl) -> probe_into env sp ~emit layout tbl lkey l.mixed)
      rtabs;
    probe_into env sp ~emit layout rmixed lkey l.mixed;
    { schema; uniform; mixed = Row_log.view mixed }

let run ctx query ~join_tree ~phases ~reuse ~sink =
  let n = List.length phases in
  if n <= 1 then none
  else begin
    let start = Ctx.now ctx in
    let combos_possible =
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      pow n (List.length (Logical.source_names query)) - n
    in
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Adp_obs.Trace.Stitchup_begin { phases = n; combos = combos_possible });
    Ctx.set_phase ctx "stitch-up";
    let env =
      { ctx; keep = Logical.keep query; phases; reuse; reused = 0;
        recomputed = 0; output = 0 }
    in
    ignore (eval env ~sink ~depth:0 join_tree : node_result);
    Sink.settle sink env.output;
    if Ctx.traced ctx then
      Ctx.emit ctx
        (Adp_obs.Trace.Stitchup_end
           { output = env.output; reused = env.reused;
             recomputed = env.recomputed });
    { combos_possible; output = env.output; reused = env.reused;
      discarded =
        List.fold_left (fun n ph -> n + held ph) 0 phases - env.reused;
      recomputed_uniform = env.recomputed;
      time = Ctx.now ctx -. start }
  end
