open Adp_relation
open Adp_storage
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Profile = Adp_obs.Profile

type preagg_mode =
  | Windowed of { initial : int; max_window : int }
  | Traditional
  | Pseudogroup
  | Punctuated

type spec =
  | Scan of { source : string; filter : Predicate.t }
  | Join of {
      left : spec;
      right : spec;
      left_key : string list;
      right_key : string list;
    }
  | Preagg of {
      child : spec;
      group_cols : string list;
      aggs : Aggregate.spec list;
      mode : preagg_mode;
    }

let scan ?(filter = Predicate.tt) source = Scan { source; filter }

let join left right ~on =
  let left_key = List.map fst on and right_key = List.map snd on in
  Join { left; right; left_key; right_key }

let preagg ?(mode = Windowed { initial = 64; max_window = 65536 }) ~group_cols
    ~aggs child =
  Preagg { child; group_cols; aggs; mode }

let rec relations = function
  | Scan s -> [ s.source ]
  | Join j -> List.sort String.compare (relations j.left @ relations j.right)
  | Preagg p -> relations p.child

let canon_pred l r = if String.compare l r <= 0 then l ^ "=" ^ r else r ^ "=" ^ l

let rec predicates = function
  | Scan _ -> []
  | Join j ->
    (* Unequal key arity (an analyzer error) pairs nothing, never raises. *)
    let own =
      if List.compare_lengths j.left_key j.right_key <> 0 then []
      else List.map2 canon_pred j.left_key j.right_key
    in
    List.sort String.compare (own @ predicates j.left @ predicates j.right)
  | Preagg p -> predicates p.child

let scan_token ~source ~filter =
  if filter = Predicate.tt then source
  else Printf.sprintf "%s{%s}" source (Predicate.to_string filter)

let preagg_token ~group_cols ~aggs ~over =
  Printf.sprintf "pre[%s|%s|%s]"
    (String.concat "," over)
    (String.concat "," group_cols)
    (String.concat ","
       (List.map
          (fun (a : Aggregate.spec) ->
            let fn =
              match a.fn with
              | Aggregate.Count -> "count"
              | Sum -> "sum"
              | Min -> "min"
              | Max -> "max"
              | Avg -> "avg"
            in
            fn ^ "(" ^ Expr.to_string a.expr ^ ")")
          aggs))

let rec tokens = function
  | Scan s -> [ scan_token ~source:s.source ~filter:s.filter ]
  | Join j -> tokens j.left @ tokens j.right
  | Preagg p -> tokens p.child

let rec preagg_descrs = function
  | Scan _ -> []
  | Join j -> preagg_descrs j.left @ preagg_descrs j.right
  | Preagg p ->
    preagg_token ~group_cols:p.group_cols ~aggs:p.aggs
      ~over:(relations p.child)
    :: preagg_descrs p.child

let signature_of_parts ~relations ~predicates ~preaggs =
  Printf.sprintf "R{%s}|P{%s}|G{%s}"
    (String.concat ";" (List.sort String.compare relations))
    (String.concat ";" (List.sort String.compare predicates))
    (String.concat ";" (List.sort String.compare preaggs))

let signature_of spec =
  signature_of_parts ~relations:(tokens spec) ~predicates:(predicates spec)
    ~preaggs:(preagg_descrs spec)

let rec pp_spec fmt = function
  | Scan s ->
    if s.filter = Predicate.tt then Format.pp_print_string fmt s.source
    else Format.fprintf fmt "σ[%a](%s)" Predicate.pp s.filter s.source
  | Join j ->
    Format.fprintf fmt "(%a ⋈[%s] %a)" pp_spec j.left
      (String.concat "," (List.map2 canon_pred j.left_key j.right_key))
      pp_spec j.right
  | Preagg p ->
    let mode =
      match p.mode with
      | Windowed w -> Printf.sprintf "win%d" w.initial
      | Traditional -> "trad"
      | Pseudogroup -> "pseudo"
      | Punctuated -> "punct"
    in
    Format.fprintf fmt "γ%s[%s](%a)" mode
      (String.concat "," p.group_cols)
      pp_spec p.child

(* ------------------------------------------------------------------ *)
(* Join layouts                                                       *)
(* ------------------------------------------------------------------ *)

type keep = relations:string list -> string -> bool

let keep_all ~relations:_ _ = true

(* [pick = None]: both inputs whole, so the output is their
   concatenation; else the input positions each side contributes. *)
type layout = { l_schema : Schema.t; pick : (int array * int array) option }

let join_layout keep ~relations left right =
  let kept schema =
    List.filter (fun (_, col) -> keep ~relations col)
      (List.mapi (fun i col -> (i, col)) (Array.to_list (Schema.columns schema)))
  in
  let l = kept left and r = kept right in
  let l_schema = Schema.make (List.map snd l @ List.map snd r) in
  if Schema.arity l_schema = Schema.arity left + Schema.arity right then
    { l_schema; pick = None }
  else
    let idx side = Array.of_list (List.map fst side) in
    { l_schema; pick = Some (idx l, idx r) }

let layout_schema l = l.l_schema

let join_tuple layout a b =
  match layout.pick with
  | None -> Tuple.concat a b
  | Some (pl, pr) ->
    let nl = Array.length pl and nr = Array.length pr in
    let out = Array.make (nl + nr) Value.Null in
    for i = 0 to nl - 1 do
      out.(i) <- a.(pl.(i))
    done;
    for i = 0 to nr - 1 do
      out.(nl + i) <- b.(pr.(i))
    done;
    out

(* ------------------------------------------------------------------ *)
(* Runtime                                                            *)
(* ------------------------------------------------------------------ *)

type preagg_rt = {
  p_comp : Aggregate.compiled;
  p_mode : preagg_mode;
  p_sig : string;  (* node description for trace events *)
  p_span : Profile.span option;
  mutable p_window : int;
  mutable p_in_window : int;
  p_groups : Hash_table.t;  (* the window's group rows, first-seen *)
  mutable p_in_total : int;
  mutable p_out_total : int;
}

(* Where a node's outputs are recorded, oldest first: in the table its
   parent join keeps over it, which inserts every tuple the node emits in
   emission order, or, for the root and a pre-aggregation's child, in a
   log of the node's own.  A plan that does not record its outputs
   leaves every node [Unrecorded], and the root is [Unrecorded] too
   unless [record_root] asks for its log. *)
type record =
  | Unrecorded
  | Own of Row_log.t
  | Held of Hash_table.t

type node = {
  n_spec : spec;
  n_schema : Schema.t;
  n_signature : string;
  n_relations : string list;
  n_predicates : string list;
  mutable n_record : record;
  mutable n_out_count : int;
  n_span : Profile.span option;  (* this phase's profiler span *)
  impl : impl;
}

and leaf_rt = {
  source : string;
  filter : Tuple.t -> bool;
  filter_atoms : int;
  mutable seen : int;
}

and join_rt = {
  left : node;
  right : node;
  ltbl : Hash_table.t;
  rtbl : Hash_table.t;
  lkey : string list;
  rkey : string list;
  layout : layout;
  preds : string list;  (* this join's own predicates *)
  j_span : Profile.span option;
}

and preagg_node_rt = { child : node; pa : preagg_rt }

and impl =
  | RLeaf of leaf_rt
  | RJoin of join_rt
  | RPreagg of preagg_node_rt

(* Where a source's tuples enter the plan: its leaf, then each ancestor
   up to the root, nearest first, with the step that takes tuples into it
   from below (the join side or the pre-aggregation they arrive at). *)
type hop = { h_node : node; h_step : Tuple.t -> Tuple.t list }

type route = {
  r_source : string;
  r_leaf : node;
  r_leaf_rt : leaf_rt;
  r_hops : hop list;
}

type t = {
  ctx : Ctx.t;
  root : node;
  routes : route array;
  record_outputs : bool;
}

let own ~record =
  if record then Own (Row_log.create ~linked:false ()) else Unrecorded

let rec build ?(depth = 0) ctx spec ~schema_of ~keep ~record =
  (* Register the profiler span before recursing into children so the
     registry order is the plan tree's pre-order. *)
  let n_span =
    if Ctx.profiled ctx then
      Ctx.span ctx ~depth (Format.asprintf "%a" pp_spec spec)
    else None
  in
  match spec with
  | Scan s ->
    let schema = schema_of s.source in
    { n_spec = spec; n_schema = schema;
      n_signature = signature_of spec; n_relations = [ s.source ];
      n_predicates = []; n_record = Unrecorded;
      n_out_count = 0; n_span;
      impl =
        RLeaf
          { source = s.source; filter = Predicate.compile s.filter schema;
            filter_atoms = Predicate.size s.filter; seen = 0 } }
  | Join j ->
    let left = build ~depth:(depth + 1) ctx j.left ~schema_of ~keep ~record
    and right =
      build ~depth:(depth + 1) ctx j.right ~schema_of ~keep ~record
    in
    let overlap =
      List.filter (fun s -> List.mem s right.n_relations) left.n_relations
    in
    if overlap <> [] then
      invalid_arg
        ("Plan.instantiate: duplicate source " ^ String.concat "," overlap);
    let n_relations = relations spec in
    let layout =
      join_layout keep ~relations:n_relations left.n_schema right.n_schema
    in
    let ltbl = Hash_table.create left.n_schema ~key_cols:j.left_key
    and rtbl = Hash_table.create right.n_schema ~key_cols:j.right_key in
    if record then begin
      left.n_record <- Held ltbl;
      right.n_record <- Held rtbl
    end;
    { n_spec = spec; n_schema = layout.l_schema;
      n_signature = signature_of spec; n_relations;
      n_predicates = predicates spec; n_record = Unrecorded; n_out_count = 0;
      n_span;
      impl =
        RJoin
          { left; right; ltbl; rtbl;
            lkey = j.left_key; rkey = j.right_key; layout;
            preds = List.map2 canon_pred j.left_key j.right_key;
            j_span = n_span } }
  | Preagg p ->
    let child =
      build ~depth:(depth + 1) ctx p.child ~schema_of ~keep ~record
    in
    child.n_record <- own ~record;
    let schema = Aggregate.partial_schema ~group_cols:p.group_cols p.aggs in
    let initial =
      match p.mode with
      | Windowed w -> max 1 w.initial
      | Traditional | Punctuated -> max_int
      | Pseudogroup -> 1
    in
    { n_spec = spec; n_schema = schema; n_signature = signature_of spec;
      n_relations = child.n_relations;
      n_predicates = child.n_predicates; n_record = Unrecorded;
      n_out_count = 0; n_span;
      impl =
        RPreagg
          { child;
            pa =
              { p_comp =
                  Aggregate.compile ~group_cols:p.group_cols p.aggs
                    child.n_schema;
                p_mode = p.mode;
                p_sig = Format.asprintf "%a" pp_spec spec;
                p_span = n_span;
                p_window = initial; p_in_window = 0;
                p_groups = Hash_table.create schema ~key_cols:p.group_cols;
                p_in_total = 0; p_out_total = 0 } } }

let spec t = t.root.n_spec
let schema t = t.root.n_schema

let rec push_all log = function
  | [] -> ()
  | o :: rest ->
    ignore (Row_log.push log o : int);
    push_all log rest

(* A node's outputs reach its record here only when it owns its log; a
   parent join's table records them as [join_side] inserts them. *)
let record node outs =
  if outs <> [] then begin
    (match node.n_record with
     | Own log -> push_all log outs
     | Held _ | Unrecorded -> ());
    let n = List.length outs in
    node.n_out_count <- node.n_out_count + n;
    match node.n_span with
    | Some sp -> Profile.add_out sp n
    | None -> ()
  end;
  outs

let record_in node outs =
  (match node.n_span with
   | Some sp -> Profile.add_in sp (List.length outs)
   | None -> ());
  outs

let probe_cost ctx sp tbl matches =
  let c = ctx.Ctx.costs in
  let io = if Hash_table.swapped tbl then c.swap_penalty else 0.0 in
  Ctx.charge_span ctx sp
    (c.hash_probe +. io +. (c.per_match *. float_of_int matches))

(* Result tuples of one probe of [tbl], walked in place from cursor
   [cur]: the cursor visits matches newest first, so the list comes out
   oldest first.  Counted in the same walk, which ends by charging the
   probe. *)
let rec emit_matches ctx j ~from_left tbl tuple n acc cur =
  if cur < 0 then begin
    probe_cost ctx j.j_span tbl n;
    acc
  end
  else
    let m = Hash_table.row tbl cur in
    let out =
      if from_left then join_tuple j.layout tuple m
      else join_tuple j.layout m tuple
    in
    emit_matches ctx j ~from_left tbl tuple (n + 1) (out :: acc)
      (Hash_table.next tbl cur)

let join_side ctx j ~from_left tuple =
  let c = ctx.Ctx.costs in
  (match j.j_span with
   | Some sp ->
     Profile.add_builds sp 1;
     Profile.add_probes sp 1
   | None -> ());
  Ctx.charge_span ctx j.j_span c.hash_build;
  let outs =
    if from_left then
      emit_matches ctx j ~from_left j.rtbl tuple 0 []
        (Hash_table.insert_probe j.ltbl tuple ~probe:j.rtbl)
    else
      emit_matches ctx j ~from_left j.ltbl tuple 0 []
        (Hash_table.insert_probe j.rtbl tuple ~probe:j.ltbl)
  in
  (match j.j_span with
   | Some sp ->
     Profile.note_mem sp
       (Hash_table.length j.ltbl + Hash_table.length j.rtbl)
   | None -> ());
  outs

(* The window's group rows are its partial tuples, first-seen: they
   leave as they are, and the cleared table never touches them again. *)
let preagg_flush_window ctx pa =
  let n_out = Hash_table.length pa.p_groups in
  let outs = Row_log.view_to_list (Hash_table.view pa.p_groups) in
  Hash_table.clear pa.p_groups;
  pa.p_out_total <- pa.p_out_total + n_out;
  (match pa.p_mode with
   | Windowed w when pa.p_in_window > 0 ->
     let ratio = float_of_int n_out /. float_of_int pa.p_in_window in
     let before = pa.p_window in
     if ratio <= 0.8 then pa.p_window <- min (2 * pa.p_window) w.max_window
     else pa.p_window <- max (pa.p_window / 2) 1;
     if pa.p_window <> before && Ctx.traced ctx then
       Ctx.emit ctx
         (Trace.Agg_window_resize
            { node = pa.p_sig; from_window = before;
              to_window = pa.p_window; reduction = ratio })
   | Windowed _ | Traditional | Pseudogroup | Punctuated -> ());
  pa.p_in_window <- 0;
  outs

let preagg_insert ctx pa tuple =
  (* At window size 1 the operator degenerates into the pseudogroup
     pass-through, which costs little more than a projection (§3.2). *)
  let cost =
    if pa.p_window <= 1 then ctx.Ctx.costs.pseudo_update
    else ctx.Ctx.costs.preagg_update
  in
  Ctx.charge_span ctx pa.p_span cost;
  pa.p_in_total <- pa.p_in_total + 1;
  (* Punctuated iterator: a group-key change on group-sorted input closes
     the previous group.  The operator holds at most that one group, so
     the key changed when there is a group and it is not the tuple's. *)
  let punct_flush =
    match pa.p_mode with
    | Punctuated
      when Hash_table.length pa.p_groups > 0
           && Aggregate.find pa.p_comp pa.p_groups tuple < 0 ->
      preagg_flush_window ctx pa
    | Punctuated | Windowed _ | Traditional | Pseudogroup -> []
  in
  pa.p_in_window <- pa.p_in_window + 1;
  Aggregate.absorb pa.p_comp pa.p_groups tuple;
  (match pa.p_span with
   | Some sp -> Profile.note_mem sp (Hash_table.length pa.p_groups)
   | None -> ());
  let window_flush =
    if pa.p_in_window >= pa.p_window then preagg_flush_window ctx pa else []
  in
  punct_flush @ window_flush

(* [List.concat_map f outs], without its two list copies in the common
   case of a single input tuple. *)
let each f = function [ x ] -> f x | outs -> List.concat_map f outs

let routes ctx root =
  let rec walk hops acc node =
    let up h_step = { h_node = node; h_step } :: hops in
    match node.impl with
    | RLeaf l ->
      { r_source = l.source; r_leaf = node; r_leaf_rt = l; r_hops = hops }
      :: acc
    | RJoin j ->
      let acc = walk (up (join_side ctx j ~from_left:true)) acc j.left in
      walk (up (join_side ctx j ~from_left:false)) acc j.right
    | RPreagg p -> walk (up (preagg_insert ctx p.pa)) acc p.child
  in
  Array.of_list (List.rev (walk [] [] root))

let instantiate ?(record_outputs = true) ?(record_root = record_outputs) ctx
    spec ~schema_of ~keep =
  let root = build ctx spec ~schema_of ~keep ~record:record_outputs in
  root.n_record <- own ~record:record_root;
  { ctx; root; routes = routes ctx root; record_outputs }

let rec climb outs hops =
  match outs, hops with
  | [], _ | _, [] -> outs
  | _, { h_node = node; h_step } :: rest ->
    climb (record node (each h_step (record_in node outs))) rest

let rec find_route routes source i =
  if i = Array.length routes then
    invalid_arg ("Plan.push: unknown source " ^ source)
  else if String.equal routes.(i).r_source source then routes.(i)
  else find_route routes source (i + 1)

(* Push one source tuple in at its leaf and up its route to the root. *)
let push t ~source tuple =
  let ctx = t.ctx in
  let r = find_route t.routes source 0 in
  let node = r.r_leaf and l = r.r_leaf_rt in
  l.seen <- l.seen + 1;
  (match node.n_span with
   | Some sp -> Profile.add_in sp 1
   | None -> ());
  Ctx.charge_span ctx node.n_span
    (ctx.Ctx.costs.filter_atom *. float_of_int (max 1 l.filter_atoms));
  if l.filter tuple then climb (record node [ tuple ]) r.r_hops
  else []

let rec do_flush ctx node =
  match node.impl with
  | RLeaf _ -> []
  | RJoin j ->
    let louts = do_flush ctx j.left in
    let from_left =
      List.concat_map (join_side ctx j ~from_left:true)
        (record_in node louts)
    in
    let routs = do_flush ctx j.right in
    let from_right =
      List.concat_map (join_side ctx j ~from_left:false)
        (record_in node routs)
    in
    record node (from_left @ from_right)
  | RPreagg p ->
    let child_outs = do_flush ctx p.child in
    let cascaded =
      List.concat_map (preagg_insert ctx p.pa) (record_in node child_outs)
    in
    let drained = preagg_flush_window ctx p.pa in
    record node (cascaded @ drained)

let flush t = do_flush t.ctx t.root

(* A node's recorded outputs, oldest first, shared. *)
let outputs node =
  match node.n_record with
  | Own log -> Row_log.view log
  | Held tbl -> Hash_table.view tbl
  | Unrecorded -> Row_log.view_of_list []

type join_info = {
  signature : string;
  relations : string list;
  predicate : string list;
  out_count : int;
  left_out : int;
  right_out : int;
  complexity : int;
}

let rec fold_nodes f acc node =
  let acc =
    match node.impl with
    | RLeaf _ -> acc
    | RJoin j -> fold_nodes f (fold_nodes f acc j.left) j.right
    | RPreagg p -> fold_nodes f acc p.child
  in
  f acc node

let join_infos t =
  fold_nodes
    (fun acc node ->
      match node.impl with
      | RJoin j ->
        { signature = node.n_signature; relations = node.n_relations;
          predicate = j.preds; out_count = node.n_out_count;
          left_out = j.left.n_out_count; right_out = j.right.n_out_count;
          complexity = List.length node.n_relations }
        :: acc
      | RLeaf _ | RPreagg _ -> acc)
    [] t.root
  |> List.rev

let node_results t =
  fold_nodes
    (fun acc node ->
      match node.impl with
      | RJoin _ ->
        (node.n_signature, node.n_schema, outputs node,
         List.length node.n_relations)
        :: acc
      | RLeaf _ | RPreagg _ -> acc)
    [] t.root
  |> List.rev

(* A pre-aggregation directly over a scan acts as the effective leaf:
   its partial tuples are what the stitch-up phase must combine.  [f]
   gets the scan and the effective leaf node. *)
let map_leaves f t =
  let rec walk acc node =
    match node.impl with
    | RLeaf l | RPreagg { child = { impl = RLeaf l; _ }; _ } -> f l node :: acc
    | RPreagg p -> walk acc p.child
    | RJoin j -> walk (walk acc j.left) j.right
  in
  List.rev (walk [] t.root)

let leaf_partition t source =
  List.find_map Fun.id
    (map_leaves
       (fun l node ->
         if String.equal l.source source then
           Some (node.n_schema, outputs node, node.n_signature)
         else None)
       t)

(* A join inserts every tuple a child emits, in emission order. *)
let child_table t ~signature ~schema ~key_cols =
  let side child key =
    String.equal child.n_signature signature
    && Schema.equal child.n_schema schema
    && List.equal String.equal key key_cols
  in
  let find found node =
    match found, node.impl with
    | None, RJoin j when side j.left j.lkey -> Some j.ltbl
    | None, RJoin j when side j.right j.rkey -> Some j.rtbl
    | (Some _ | None), (RLeaf _ | RJoin _ | RPreagg _) -> found
  in
  if t.record_outputs then fold_nodes find None t.root else None

type leaf_count = {
  source : string;
  signature : string;
  seen : int;
  passed : int;
}

let leaf_counts t =
  map_leaves
    (fun (l : leaf_rt) node ->
      { source = l.source; signature = node.n_signature; seen = l.seen;
        passed = node.n_out_count })
    t

let preagg_stats t =
  fold_nodes
    (fun acc node ->
      match node.impl with
      | RPreagg p ->
        (node.n_signature, p.pa.p_in_total, p.pa.p_out_total, p.pa.p_window)
        :: acc
      | RLeaf _ | RJoin _ -> acc)
    [] t.root
  |> List.rev

let join_tables t =
  fold_nodes
    (fun acc node ->
      match node.impl with
      | RJoin j ->
        (List.length node.n_relations, node.n_signature ^ "#build-left", j.ltbl)
        :: ( List.length node.n_relations,
             node.n_signature ^ "#build-right", j.rtbl )
        :: acc
      | RLeaf _ | RPreagg _ -> acc)
    [] t.root

let memory_in_use t =
  List.fold_left
    (fun acc (_, _, tbl) ->
      if Hash_table.swapped tbl then acc else acc + Hash_table.length tbl)
    0 (join_tables t)

let preagg_in_use t =
  fold_nodes
    (fun acc node ->
      match node.impl with
      | RPreagg p -> acc + Hash_table.length p.pa.p_groups
      | RLeaf _ | RJoin _ -> acc)
    0 t.root

(* The governance ceiling accounts for everything resident: hash-join
   build sides plus buffered pre-aggregation groups.  [memory_in_use]
   keeps its original build-side-only meaning because the page-out
   budget below only manages join tables. *)
let memory_footprint t = memory_in_use t + preagg_in_use t

let apply_memory_pressure t ~budget =
  (* Keep the simplest expressions resident (they are the likeliest to be
     shared); page out from the most complex end once the budget runs out. *)
  let tables =
    List.sort
      (fun (ca, na, _) (cb, nb, _) ->
        let c = Int.compare ca cb in
        if c <> 0 then c else String.compare na nb)
      (join_tables t)
  in
  let swapped = ref [] in
  let used = ref 0 in
  List.iter
    (fun (_, descr, tbl) ->
      let size = Hash_table.length tbl in
      if !used + size <= budget then begin
        used := !used + size;
        Hash_table.swap_in tbl
      end
      else begin
        swapped := descr :: !swapped;
        Metrics.incr t.ctx.Ctx.paged_out;
        if Ctx.traced t.ctx then
          Ctx.emit t.ctx (Trace.Page_out { node = descr });
        Hash_table.swap_out tbl
      end)
    tables;
  List.rev !swapped

(* ------------------------------------------------------------------ *)
(* State capture and restore (checkpoint/recovery)                    *)
(* ------------------------------------------------------------------ *)

type preagg_state = {
  ps_window : int;
  ps_in_window : int;
  ps_in_total : int;
  ps_out_total : int;
  ps_groups : (Tuple.t * Tuple.t) list;
}

type state = {
  st_outputs : Row_log.view;
  st_out_count : int;
  st_impl : impl_state;
}

and impl_state =
  | St_leaf of { seen : int }
  | St_join of {
      st_left : state;
      st_right : state;
      lswapped : bool;
      rswapped : bool;
    }
  | St_preagg of { st_child : state; st_pa : preagg_state }

let rec capture_node node =
  let st_impl =
    match node.impl with
    | RLeaf l -> St_leaf { seen = l.seen }
    | RJoin j ->
      St_join
        { st_left = capture_node j.left; st_right = capture_node j.right;
          lswapped = Hash_table.swapped j.ltbl;
          rswapped = Hash_table.swapped j.rtbl }
    | RPreagg p ->
      St_preagg
        { st_child = capture_node p.child;
          st_pa =
            { ps_window = p.pa.p_window; ps_in_window = p.pa.p_in_window;
              ps_in_total = p.pa.p_in_total; ps_out_total = p.pa.p_out_total;
              ps_groups =
                List.map
                  (fun row ->
                    let k = Hash_table.key_of p.pa.p_groups row in
                    let g = Array.length k in
                    (k, Array.sub row g (Array.length row - g)))
                  (Row_log.view_to_list (Hash_table.view p.pa.p_groups)) } }
  in
  (* A log is only ever appended to, so a view of it is already a
     snapshot: share it rather than copy it. *)
  { st_outputs = outputs node; st_out_count = node.n_out_count; st_impl }

let capture t =
  match t.root.n_record with
  | Own _ when t.record_outputs -> capture_node t.root
  | Own _ | Held _ | Unrecorded ->
    invalid_arg "Plan.capture: plan does not record its outputs"

let shape_error () =
  invalid_arg "Plan.restore: state shape does not match the plan"

(* A join inserted every tuple its child emitted, in emission order, so
   re-inserting the child's outputs oldest-first rebuilds the table with
   its exact bucket chains, and with them the child's record. *)
let refill tbl (child : state) ~swapped =
  Hash_table.clear tbl;
  Row_log.view_iter (Hash_table.insert tbl) child.st_outputs;
  if swapped then Hash_table.swap_out tbl else Hash_table.swap_in tbl

let rec restore_node node st =
  (match node.n_record with
   | Own _ -> node.n_record <- Own (Row_log.of_view st.st_outputs)
   | Held _ | Unrecorded -> ());
  node.n_out_count <- st.st_out_count;
  match node.impl, st.st_impl with
  | RLeaf l, St_leaf s -> l.seen <- s.seen
  | RJoin j, St_join s ->
    refill j.ltbl s.st_left ~swapped:s.lswapped;
    refill j.rtbl s.st_right ~swapped:s.rswapped;
    restore_node j.left s.st_left;
    restore_node j.right s.st_right
  | RPreagg p, St_preagg s ->
    Hash_table.clear p.pa.p_groups;
    List.iter
      (fun (k, acc) -> Hash_table.insert p.pa.p_groups (Array.append k acc))
      s.st_pa.ps_groups;
    p.pa.p_window <- s.st_pa.ps_window;
    p.pa.p_in_window <- s.st_pa.ps_in_window;
    p.pa.p_in_total <- s.st_pa.ps_in_total;
    p.pa.p_out_total <- s.st_pa.ps_out_total;
    restore_node p.child s.st_child
  | (RLeaf _ | RJoin _ | RPreagg _), _ -> shape_error ()

let restore t st = restore_node t.root st

let root_results t = (t.root.n_schema, outputs t.root)
