open Adp_relation
open Adp_exec
open Adp_optimizer

type schema_lookup = string -> Schema.t option
type type_lookup = string -> Value.ty option

let no_types _ = None

let type_sample_limit = 100

let types_of_relations rels =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (_, rel) ->
      let schema = Relation.schema rel in
      let cols = Schema.columns schema in
      let n = min type_sample_limit (Relation.cardinality rel) in
      for i = 0 to n - 1 do
        let tup = Relation.get rel i in
        Array.iteri
          (fun j col ->
            if not (Hashtbl.mem table col) then
              match Value.ty_of tup.(j) with
              | Some ty -> Hashtbl.add table col ty
              | None -> ())
          cols
      done)
    rels;
  fun col -> Hashtbl.find_opt table col

(* ------------------------------------------------------------------ *)
(* Pass 1: schema / type checking                                     *)
(* ------------------------------------------------------------------ *)

let string_set xs = List.sort_uniq String.compare xs

let agg_input_columns (a : Aggregate.spec) =
  match a.fn with Count -> [] | Sum | Min | Max | Avg -> Expr.columns a.expr

(* Walk the plan bottom-up computing each node's output schema exactly as
   Plan.instantiate would, accumulating diagnostics instead of raising.
   A node whose schema cannot be determined propagates None upward so one
   root cause does not cascade into spurious downstream reports. *)
let rec walk ~types ~lookup ~path spec :
  Schema.t option * Diagnostic.t list =
  match spec with
  | Plan.Scan { source; filter } -> (
    match lookup source with
    | None ->
      ( None,
        [ Diagnostic.errorf ~code:"unknown-source" ~path
            "scan source %S is not in the catalog" source ] )
    | Some schema ->
      let ds =
        List.filter_map
          (fun col ->
            if Schema.mem schema col then None
            else
              Some
                (Diagnostic.errorf ~code:"unknown-column" ~path
                   "filter column %S does not resolve in source %S" col
                   source))
          (string_set (Predicate.columns filter))
      in
      ((if ds = [] then Some schema else None), ds))
  | Plan.Join { left; right; left_key; right_key } ->
    let ls, dl = walk ~types ~lookup ~path:(path ^ ".left") left in
    let rs, dr = walk ~types ~lookup ~path:(path ^ ".right") right in
    let ds = ref (dl @ dr) in
    let add d = ds := !ds @ [ d ] in
    let overlap =
      List.filter
        (fun r -> List.mem r (Plan.relations right))
        (string_set (Plan.relations left))
    in
    List.iter
      (fun r ->
        add
          (Diagnostic.errorf ~code:"duplicate-source-in-plan" ~path
             "source %S appears on both sides of the join" r))
      overlap;
    if List.length left_key <> List.length right_key then
      add
        (Diagnostic.errorf ~code:"join-key-arity-mismatch" ~path
           "left key has %d columns, right key has %d"
           (List.length left_key) (List.length right_key))
    else if left_key = [] then
      add
        (Diagnostic.warning ~code:"cross-product-join" ~path
           "join has no key columns: every pair of inputs matches");
    let key_ty side schema col =
      match schema with
      | None -> None
      | Some schema ->
        if Schema.mem schema col then types col
        else begin
          add
            (Diagnostic.errorf ~code:"join-key-unresolved" ~path
               "%s join key %S does not resolve in the %s input" side col
               side);
          None
        end
    in
    let lt = List.map (key_ty "left" ls) left_key in
    let rt = List.map (key_ty "right" rs) right_key in
    if List.length lt = List.length rt then
      List.iteri
        (fun i (a, b) ->
          match (a, b) with
          | Some ta, Some tb when not (Value.ty_joinable ta tb) ->
            add
              (Diagnostic.errorf ~code:"join-key-type-mismatch" ~path
                 "key pair %d joins %s %s with %s %s: no value of one type \
                  ever equals the other"
                 i
                 (List.nth left_key i)
                 (Value.ty_to_string ta)
                 (List.nth right_key i)
                 (Value.ty_to_string tb))
          | _ -> ())
        (List.combine lt rt);
    let schema =
      match (ls, rs) with
      | Some a, Some b -> (
        try Some (Schema.concat a b)
        with Invalid_argument msg ->
          add
            (Diagnostic.errorf ~code:"bad-schema" ~path
               "join output schema is malformed: %s" msg);
          None)
      | _ -> None
    in
    (schema, !ds)
  | Plan.Preagg { child; group_cols; aggs; _ } ->
    let cs, dc = walk ~types ~lookup ~path:(path ^ ".child") child in
    let ds = ref dc in
    let add d = ds := !ds @ [ d ] in
    (match cs with
     | None -> ()
     | Some child_schema ->
       List.iter
         (fun col ->
           if not (Schema.mem child_schema col) then
             add
               (Diagnostic.errorf ~code:"preagg-missing-column" ~path
                  "group column %S does not resolve in the \
                   pre-aggregation input"
                  col))
         (string_set group_cols);
       List.iter
         (fun (a : Aggregate.spec) ->
           List.iter
             (fun col ->
               if not (Schema.mem child_schema col) then
                 add
                   (Diagnostic.errorf ~code:"preagg-missing-column" ~path
                      "aggregate %S reads column %S, absent from the \
                       pre-aggregation input"
                      a.name col)
               else
                 match a.fn with
                 | Sum | Avg -> (
                   match types col with
                   | Some ty when not (Value.ty_numeric ty) ->
                     add
                       (Diagnostic.errorf ~code:"preagg-non-numeric-agg"
                          ~path
                          "aggregate %S applies %s to %s column %S"
                          a.name
                          (match a.fn with Sum -> "sum" | _ -> "avg")
                          (Value.ty_to_string ty) col)
                   | _ -> ())
                 | Count | Min | Max -> ())
             (agg_input_columns a))
         aggs);
    let schema =
      match cs with
      | None -> None
      | Some _ -> (
        try Some (Aggregate.partial_schema ~group_cols aggs)
        with Invalid_argument msg ->
          add
            (Diagnostic.errorf ~code:"bad-schema" ~path
               "pre-aggregation output schema is malformed: %s" msg);
          None)
    in
    (schema, !ds)

let spec_schema ~lookup spec =
  match walk ~types:no_types ~lookup ~path:"root" spec with
  | Some schema, _ -> Ok schema
  | None, ds -> Error ds

let check_plan ?(types = no_types) ~lookup spec =
  snd (walk ~types ~lookup ~path:"root" spec)

(* ------------------------------------------------------------------ *)
(* Query checking                                                     *)
(* ------------------------------------------------------------------ *)

let check_query ~lookup (q : Logical.query) =
  let schema_of name =
    match lookup name with Some s -> s | None -> raise Not_found
  in
  let base =
    List.map
      (fun (code, message) -> Diagnostic.error ~code ~path:"query" message)
      (Logical.validate_list ~schema_of q)
  in
  let n = List.length q.sources in
  if n > Enumerate.max_relations then
    base
    @ [ Diagnostic.errorf ~code:"too-many-relations" ~path:"query"
          "query joins %d relations; the optimizer enumerates at most %d" n
          Enumerate.max_relations ]
  else base

(* ------------------------------------------------------------------ *)
(* Plan-for-query conformance                                         *)
(* ------------------------------------------------------------------ *)

let pp_set names = String.concat ", " names

let rec scan_filters = function
  | Plan.Scan { source; filter } -> [ (source, filter) ]
  | Plan.Join { left; right; _ } -> scan_filters left @ scan_filters right
  | Plan.Preagg { child; _ } -> scan_filters child

let check_plan_for_query ?(types = no_types) ~lookup (q : Logical.query)
    spec =
  let ds = check_plan ~types ~lookup spec in
  let plan_rels = string_set (Plan.relations spec) in
  let query_rels = string_set (Logical.source_names q) in
  if plan_rels <> query_rels then
    ds
    @ [ Diagnostic.errorf ~code:"plan-relation-mismatch" ~path:"root"
          "plan joins {%s} but the query names {%s}" (pp_set plan_rels)
          (pp_set query_rels) ]
  else begin
    (* Only comparable when the relation sets agree. *)
    let plan_preds = string_set (Plan.predicates spec) in
    let query_preds =
      string_set (Logical.preds_within q (Logical.source_names q))
    in
    let pred_ds =
      if plan_preds <> query_preds then
        [ Diagnostic.errorf ~code:"plan-predicate-mismatch" ~path:"root"
            "plan applies predicates {%s} but the query requires {%s}"
            (pp_set plan_preds) (pp_set query_preds) ]
      else []
    in
    let filter_ds =
      List.filter_map
        (fun (source, filter) ->
          match
            List.find_opt
              (fun (s : Logical.source) -> s.name = source)
              q.sources
          with
          | Some s when s.filter = filter -> None
          | Some s ->
            Some
              (Diagnostic.errorf ~code:"plan-filter-mismatch" ~path:source
                 "scan of %S filters on [%s] but the query pushes down \
                  [%s]"
                 source
                 (Predicate.to_string filter)
                 (Predicate.to_string s.filter))
          | None -> None (* already reported as plan-relation-mismatch *))
        (scan_filters spec)
    in
    ds @ pred_ds @ filter_ds
  end

(* ------------------------------------------------------------------ *)
(* Pass 2: ADP conformance                                            *)
(* ------------------------------------------------------------------ *)

(* The effective leaf of a source is the unit whose buffered partition the
   stitch-up phase reuses: the scan itself, or the pre-aggregation sitting
   directly above it (Plan.leaf_partition makes the same choice at run
   time).  Phases may only be combined when these signatures agree — the
   regions of each relation must partition the *same* stream. *)
let effective_leaf_signatures spec =
  let rec go spec =
    match spec with
    | Plan.Scan { source; filter } ->
      [ (source, Plan.scan_token ~source ~filter) ]
    | Plan.Preagg { child = Plan.Scan { source; _ }; _ } ->
      [ (source, Plan.signature_of spec) ]
    | Plan.Preagg { child; _ } -> go child
    | Plan.Join { left; right; _ } -> go left @ go right
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (go spec)

let check_conformance specs =
  match specs with
  | [] | [ _ ] -> []
  | first :: rest ->
    let base0 = string_set (Plan.relations first) in
    let sigs0 = effective_leaf_signatures first in
    List.concat
      (List.mapi
         (fun i spec ->
           let path = Printf.sprintf "phase-%d" (i + 1) in
           let base = string_set (Plan.relations spec) in
           if base <> base0 then
             [ Diagnostic.errorf ~code:"adp-base-set-mismatch" ~path
                 "phase plan covers {%s} but phase 0 covers {%s}: regions \
                  of different relation sets cannot be stitched"
                 (pp_set base) (pp_set base0) ]
           else
             List.filter_map
               (fun ((source, s), (_, s0)) ->
                 if s = s0 then None
                 else
                   Some
                     (Diagnostic.errorf
                        ~code:"adp-leaf-signature-mismatch" ~path
                        "leaf %S has signature %s but phase 0 has %s: the \
                         phases partition different streams"
                        source s s0))
               (List.combine (effective_leaf_signatures spec) sigs0))
         rest)

let check_equivalent ~before ~after =
  let rb = string_set (Plan.relations before)
  and ra = string_set (Plan.relations after) in
  let rel_ds =
    if rb <> ra then
      [ Diagnostic.errorf ~code:"rewrite-relation-mismatch" ~path:"root"
          "rewrite changed the base relations from {%s} to {%s}"
          (pp_set rb) (pp_set ra) ]
    else []
  in
  let pb = string_set (Plan.predicates before)
  and pa = string_set (Plan.predicates after) in
  let pred_ds =
    if pb <> pa then
      [ Diagnostic.errorf ~code:"rewrite-predicate-mismatch" ~path:"root"
          "rewrite changed the join predicates from {%s} to {%s}"
          (pp_set pb) (pp_set pa) ]
    else []
  in
  rel_ds @ pred_ds

(* ------------------------------------------------------------------ *)
(* Pass 3: stitch-up trees                                            *)
(* ------------------------------------------------------------------ *)

let check_stitch_tree ~phases (q : Logical.query) spec =
  let rec preagg_placement ~path spec =
    match spec with
    | Plan.Scan _ -> []
    | Plan.Preagg { child = Plan.Scan _; _ } -> []
    | Plan.Preagg { child; _ } ->
      Diagnostic.errorf ~code:"stitch-preagg-above-join" ~path
        "stitch-up pre-aggregation must sit directly above a scan so leaf \
         partitions stay reusable"
      :: preagg_placement ~path:(path ^ ".child") child
    | Plan.Join { left; right; _ } ->
      preagg_placement ~path:(path ^ ".left") left
      @ preagg_placement ~path:(path ^ ".right") right
  in
  let placement = preagg_placement ~path:"root" spec in
  let tree_rels = string_set (Plan.relations spec) in
  let query_rels = string_set (Logical.source_names q) in
  let coverage =
    if tree_rels <> query_rels then
      [ Diagnostic.errorf ~code:"plan-relation-mismatch" ~path:"root"
          "stitch-up tree joins {%s} but the query names {%s}"
          (pp_set tree_rels) (pp_set query_rels) ]
    else []
  in
  placement @ coverage @ Stitch_matrix.check ~phases spec

(* ------------------------------------------------------------------ *)
(* Pass 4: configuration audit                                        *)
(* ------------------------------------------------------------------ *)

let check_knobs ~poll_interval ~switch_threshold ~max_phases ~min_leaf_seen
    ~(retry : Retry.policy) =
  let ds = ref [] in
  let bad path fmt =
    Printf.ksprintf
      (fun message ->
        ds := !ds @ [ Diagnostic.error ~code:"bad-knob" ~path message ])
      fmt
  in
  if not (poll_interval > 0.) then
    bad "poll_interval" "poll interval must be positive, got %g"
      poll_interval;
  (* 0 is legal: it pins the initial plan (switching never pays off). *)
  if not (switch_threshold >= 0.) then
    bad "switch_threshold"
      "switch threshold must be non-negative (a ratio of estimated costs; \
       0 disables switching), got %g"
      switch_threshold;
  if max_phases < 1 then
    bad "max_phases" "at least one phase is required, got %d" max_phases;
  if min_leaf_seen < 0 then
    bad "min_leaf_seen" "minimum leaf-seen count cannot be negative, got %d"
      min_leaf_seen;
  if not (retry.timeout_s > 0.) then
    bad "retry.timeout_s" "timeout must be positive, got %g"
      retry.timeout_s;
  if retry.max_retries < 0 then
    bad "retry.max_retries" "retry budget cannot be negative, got %d"
      retry.max_retries;
  if not (retry.backoff_initial_s > 0.) then
    bad "retry.backoff_initial_s" "initial backoff must be positive, got %g"
      retry.backoff_initial_s;
  if not (retry.backoff_multiplier >= 1.) then
    bad "retry.backoff_multiplier"
      "backoff multiplier below 1 shrinks the backoff, got %g"
      retry.backoff_multiplier;
  if not (retry.backoff_max_s >= retry.backoff_initial_s) then
    bad "retry.backoff_max_s"
      "backoff cap %g is below the initial backoff %g" retry.backoff_max_s
      retry.backoff_initial_s;
  if not (retry.jitter >= 0. && retry.jitter < 1.) then
    bad "retry.jitter" "jitter must lie in [0, 1), got %g" retry.jitter;
  !ds

let check_governance ~poll_interval ~deadline ~memory_budget ~memory_ceiling
    ~(breaker : Breaker.policy option) =
  let ds = ref [] in
  let bad code path fmt =
    Printf.ksprintf
      (fun message -> ds := !ds @ [ Diagnostic.error ~code ~path message ])
      fmt
  in
  (* Deadlines and memory limits are enforced at the re-optimizer's
     polls; the breaker runs in the driver and needs none. *)
  if poll_interval = infinity then
    List.iter
      (fun (path, set) ->
        if set then
          bad "gov-needs-polls" path
            "%s is enforced at re-optimizer polls, and this run never \
             polls (a static run); use a corrective run"
            path)
      [ "deadline", deadline <> None;
        "memory_budget", memory_budget <> None;
        "memory_ceiling", memory_ceiling <> None ];
  (match deadline with
   | Some d when not (d > 0.) ->
     bad "gov-bad-deadline" "deadline"
       "deadline must be a positive virtual-µs budget, got %g" d
   | Some _ | None -> ());
  (match memory_budget with
   | Some b when b <= 0 ->
     bad "gov-bad-budget" "memory_budget"
       "memory budget must be a positive tuple count, got %d" b
   | Some _ | None -> ());
  (match memory_ceiling with
   | Some c when c <= 0 ->
     bad "gov-bad-ceiling" "memory_ceiling"
       "memory ceiling must be a positive tuple count, got %d" c
   | Some _ | None -> ());
  (match memory_budget, memory_ceiling with
   | Some b, Some c when b > 0 && c > 0 && c < b ->
     bad "gov-ceiling-below-budget" "memory_ceiling"
       "hard ceiling %d is below the soft paging budget %d, so the query \
        would degrade before paging ever triggers"
       c b
   | _ -> ());
  (match breaker with
   | None -> ()
   | Some p ->
     if not (p.window_s > 0.) then
       bad "gov-bad-breaker" "breaker.window_s"
         "failure window must be positive, got %g" p.window_s;
     if p.failure_threshold < 1 then
       bad "gov-bad-breaker" "breaker.failure_threshold"
         "at least one failure must be required to trip, got %d"
         p.failure_threshold;
     if not (p.cooldown_s > 0.) then
       bad "gov-bad-breaker" "breaker.cooldown_s"
         "cooldown must be positive, got %g" p.cooldown_s;
     if p.window_s > 0. && p.cooldown_s > 0. && p.window_s < p.cooldown_s
     then
       bad "gov-breaker-window" "breaker.window_s"
         "failure window %g s is shorter than the probe cooldown %g s: \
          recorded failures expire before the breaker can re-trip, so it \
          flaps instead of holding open"
         p.window_s p.cooldown_s;
     if not (p.probe_jitter >= 0. && p.probe_jitter < 1.) then
       bad "gov-bad-breaker" "breaker.probe_jitter"
         "probe jitter must lie in [0, 1), got %g" p.probe_jitter);
  !ds

(* ------------------------------------------------------------------ *)
(* Umbrella                                                           *)
(* ------------------------------------------------------------------ *)

let check_workload ?(types = no_types) ?(phases = 2) ~lookup q specs =
  let qds = check_query ~lookup q in
  (* A broken query makes plan-vs-query comparisons meaningless. *)
  if Diagnostic.has_errors qds then qds
  else
    let pds =
      List.concat
        (List.mapi
           (fun i spec ->
             List.map
               (fun (d : Diagnostic.t) ->
                 if List.length specs > 1 then
                   { d with path = Printf.sprintf "plan-%d.%s" i d.path }
                 else d)
               (check_plan_for_query ~types ~lookup q spec))
           specs)
    in
    let cds = check_conformance specs in
    let sds =
      match specs with
      | spec :: _ when phases > 1 -> check_stitch_tree ~phases q spec
      | _ -> []
    in
    qds @ pds @ cds @ sds

(* ------------------------------------------------------------------ *)
(* Pass 5: checkpoint phase ledger                                    *)
(* ------------------------------------------------------------------ *)

let check_checkpoint_regions ~ledger ~sources =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (match ledger with
   | [] -> add (Diagnostic.error ~code:"ckpt-empty-ledger" ~path:"ledger"
                  "checkpoint carries no phase regions")
   | _ -> ());
  (* Phase ids must be strictly increasing: the ledger's order *is* the
     region order (phase k's region is (end_{k-1}, end_k]). *)
  let rec ids_ok = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if b <= a then
        add
          (Diagnostic.errorf ~code:"ckpt-phase-order"
             ~path:(Printf.sprintf "phase-%d" b)
             "phase ids out of order in the ledger (%d after %d)" b a);
      ids_ok rest
    | [ _ ] | [] -> ()
  in
  ids_ok ledger;
  let source_names = List.map fst sources in
  (* Every phase entry must speak about the same source set the recovered
     execution will read, and end positions must be monotone per source
     (otherwise the regions overlap or leave gaps) and within the
     re-created source's cardinality (otherwise the stream shrank and the
     recorded regions no longer partition it). *)
  List.iter
    (fun (phase_id, ends) ->
      let path = Printf.sprintf "phase-%d" phase_id in
      List.iter
        (fun (src, pos) ->
          match List.assoc_opt src sources with
          | None ->
            add
              (Diagnostic.errorf ~code:"ckpt-source-missing"
                 ~path:(path ^ "." ^ src)
                 "checkpoint records positions for source %S, which the \
                  recovered execution does not have" src)
          | Some card ->
            if pos < 0 then
              add
                (Diagnostic.errorf ~code:"ckpt-region-overlap"
                   ~path:(path ^ "." ^ src)
                   "negative stream position %d" pos);
            if pos > card then
              add
                (Diagnostic.errorf ~code:"ckpt-source-truncated"
                   ~path:(path ^ "." ^ src)
                   "checkpoint position %d exceeds source %S's cardinality \
                    %d: the stream shrank and the recorded regions no \
                    longer partition it" pos src card))
        ends;
      List.iter
        (fun name ->
          if not (List.mem_assoc name ends) then
            add
              (Diagnostic.errorf ~code:"ckpt-source-unknown"
                 ~path:(path ^ "." ^ name)
                 "source %S has no recorded position in this phase entry"
                 name))
        source_names)
    ledger;
  (* Monotone end positions across consecutive phases. *)
  let rec monotone = function
    | (pa, ea) :: (((pb, eb) :: _) as rest) ->
      List.iter
        (fun (src, pos_a) ->
          match List.assoc_opt src eb with
          | Some pos_b when pos_b < pos_a ->
            add
              (Diagnostic.errorf ~code:"ckpt-region-overlap"
                 ~path:(Printf.sprintf "phase-%d.%s" pb src)
                 "source %S position regresses from %d (phase %d) to %d \
                  (phase %d): phase regions would overlap" src pos_a pa
                 pos_b pb)
          | Some _ | None -> ())
        ea;
      monotone rest
    | [ _ ] | [] -> ()
  in
  monotone ledger;
  List.rev !ds
