open Adp_relation
open Adp_storage

type variant = Naive | Priority_queue of int

type side = L | R

(* Overflow-partition entries: epoch 0 = was memory-resident (and joined
   within its operator) before the spill; epoch 1 = arrived after its
   region spilled and was never probed.  The operator tag matters only for
   epoch 0: same-operator epoch-0 pairs were already joined in memory,
   while cross-operator epoch-0 pairs were still awaiting the mini
   stitch-up when they were spilled. *)
type op_tag = Merge_op | Hash_op

type disk_entry = { d_epoch : int; d_op : op_tag; d_tuple : Tuple.t }

type t = {
  ctx : Ctx.t;
  variant : variant;
  merge : Sym_join.t;
  hash : Sym_join.t;
  schema : Schema.t;
  (* Priority queues buffer (key, tuple) pairs per side. *)
  pq_l : (Value.t array * Tuple.t) Heap.t;
  pq_r : (Value.t array * Tuple.t) Heap.t;
  lkey : int array;
  rkey : int array;
  region_table : Row_log.view -> Hash_table.t;  (* right overflow rows *)
  (* Overflow state. *)
  budget : int option;
  n_regions : int;
  spilled : bool array;
  disk_l : disk_entry list array;
  disk_r : disk_entry list array;
  mutable next_spill : int;
  mutable mem_count : int;
  mutable spilled_tuples : int;
  mutable overflow_out : int;
  mutable merge_l : int;
  mutable merge_r : int;
  mutable hash_l : int;
  mutable hash_r : int;
  mutable stitch_out : int;
  mutable finished : bool;
  (* Last routing target per side, to trace only the flips. *)
  mutable last_route_l : op_tag option;
  mutable last_route_r : op_tag option;
  (* Profiler spans per component; merge/hash attribution brackets the
     inner Sym_join call with clock reads (reads never perturb time). *)
  sp_router : Adp_obs.Profile.span option;
  sp_merge : Adp_obs.Profile.span option;
  sp_hash : Adp_obs.Profile.span option;
  sp_pq : Adp_obs.Profile.span option;
  sp_overflow : Adp_obs.Profile.span option;
  sp_stitch : Adp_obs.Profile.span option;
}

let create ?memory_budget ?(regions = 8) ctx ~variant ~left_schema
    ~right_schema ~left_key ~right_key =
  let mk mode =
    Sym_join.create ctx ~mode ~left_schema ~right_schema ~left_key ~right_key
  in
  let cmp (k1, _) (k2, _) = Tuple.compare_key k1 k2 in
  let sub name =
    if Ctx.profiled ctx then begin
      ignore (Ctx.span ctx ~depth:0 "comp-join");
      Ctx.span ctx ~depth:1 ("comp-join/" ^ name)
    end
    else None
  in
  { ctx; variant; merge = mk `Merge; hash = mk `Hash;
    sp_router = sub "router"; sp_merge = sub "merge"; sp_hash = sub "hash";
    sp_pq = sub "pq"; sp_overflow = sub "overflow"; sp_stitch = sub "stitch";
    schema = Schema.concat left_schema right_schema;
    pq_l = Heap.create cmp; pq_r = Heap.create cmp;
    lkey = Array.of_list (List.map (Schema.index left_schema) left_key);
    rkey = Array.of_list (List.map (Schema.index right_schema) right_key);
    region_table = Hash_table.of_view right_schema ~key_cols:right_key;
    budget = memory_budget; n_regions = max 1 regions;
    spilled = Array.make (max 1 regions) false;
    disk_l = Array.make (max 1 regions) [];
    disk_r = Array.make (max 1 regions) [];
    next_spill = 0; mem_count = 0; spilled_tuples = 0; overflow_out = 0;
    merge_l = 0; merge_r = 0; hash_l = 0; hash_r = 0; stitch_out = 0;
    finished = false; last_route_l = None; last_route_r = None }

let schema t = t.schema

let sym_side = function L -> Sym_join.L | R -> Sym_join.R

let key_of t side tuple =
  match side with
  | L -> Tuple.key tuple t.lkey
  | R -> Tuple.key tuple t.rkey

let region_of t side tuple =
  Tuple.hash_key (key_of t side tuple) land max_int mod t.n_regions

let to_disk t side entry =
  let arr = match side with L -> t.disk_l | R -> t.disk_r in
  let r = region_of t side entry.d_tuple in
  arr.(r) <- entry :: arr.(r);
  t.spilled_tuples <- t.spilled_tuples + 1;
  Ctx.charge_span t.ctx t.sp_overflow t.ctx.Ctx.costs.spill_write

(* Spill one more region: extract its tuples from all four hash tables
   (same boundaries everywhere), write them to the overflow partitions,
   and rebuild the tables with what remains. *)
let spill_next_region t =
  if t.next_spill < t.n_regions then begin
    let region = t.next_spill in
    t.next_spill <- t.next_spill + 1;
    t.spilled.(region) <- true;
    let split side op tbl =
      let all = Hash_table.to_list tbl in
      Hash_table.clear tbl;
      List.iter
        (fun tuple ->
          if region_of t side tuple = region then begin
            t.mem_count <- t.mem_count - 1;
            to_disk t side { d_epoch = 0; d_op = op; d_tuple = tuple }
          end
          else begin
            Ctx.charge_span t.ctx t.sp_overflow t.ctx.Ctx.costs.hash_build;
            Hash_table.insert tbl tuple
          end)
        all
    in
    split L Merge_op (Sym_join.left_table t.merge);
    split R Merge_op (Sym_join.right_table t.merge);
    split L Hash_op (Sym_join.left_table t.hash);
    split R Hash_op (Sym_join.right_table t.hash);
    if Ctx.traced t.ctx then
      Ctx.emit t.ctx
        (Adp_obs.Trace.Page_out
           { node = Printf.sprintf "comp-join/region-%d" region })
  end

let maybe_spill t =
  match t.budget with
  | None -> ()
  | Some budget ->
    while t.mem_count > budget && t.next_spill < t.n_regions do
      spill_next_region t
    done

(* Route a tuple that has passed (or bypassed) the priority queue. *)
let route t side tuple =
  Ctx.charge_span t.ctx t.sp_router t.ctx.Ctx.costs.route;
  if t.spilled.(region_of t side tuple) then begin
    (* Its region lives on disk: defer entirely (epoch 1). *)
    to_disk t side { d_epoch = 1; d_op = Hash_op; d_tuple = tuple };
    []
  end
  else begin
    t.mem_count <- t.mem_count + 1;
    let target =
      if Sym_join.accepts t.merge (sym_side side) tuple then Merge_op
      else Hash_op
    in
    (if Ctx.traced t.ctx then begin
       let last = match side with L -> t.last_route_l | R -> t.last_route_r in
       if last <> Some target then
         Ctx.emit t.ctx
           (Adp_obs.Trace.Comp_join_route
              { side = (match side with L -> "L" | R -> "R");
                routed_to =
                  (match target with Merge_op -> "merge" | Hash_op -> "hash");
                routed =
                  (match side with
                   | L -> t.merge_l + t.hash_l
                   | R -> t.merge_r + t.hash_r) })
     end);
    (match side with
     | L -> t.last_route_l <- Some target
     | R -> t.last_route_r <- Some target);
    (* Attribute the inner symmetric-join work by bracketing it with
       clock reads: the delta is exactly what the call charged, and
       reading the clock cannot perturb it. *)
    let timed sp op f =
      match sp with
      | None -> f ()
      | Some sp ->
        let before = Ctx.now t.ctx in
        let outs = f () in
        Adp_obs.Profile.add_time sp (Ctx.now t.ctx -. before);
        Adp_obs.Profile.add_in sp 1;
        Adp_obs.Profile.add_out sp (List.length outs);
        Adp_obs.Profile.note_mem sp
          (Hash_table.length (Sym_join.left_table op)
          + Hash_table.length (Sym_join.right_table op));
        outs
    in
    let outs =
      match target with
      | Merge_op ->
        (match side with
         | L -> t.merge_l <- t.merge_l + 1
         | R -> t.merge_r <- t.merge_r + 1);
        timed t.sp_merge t.merge (fun () ->
            Sym_join.insert t.merge (sym_side side) tuple)
      | Hash_op ->
        (match side with
         | L -> t.hash_l <- t.hash_l + 1
         | R -> t.hash_r <- t.hash_r + 1);
        timed t.sp_hash t.hash (fun () ->
            Sym_join.insert t.hash (sym_side side) tuple)
    in
    maybe_spill t;
    outs
  end

let insert t side tuple =
  if t.finished then invalid_arg "Comp_join.insert: already finished";
  match t.variant with
  | Naive -> route t side tuple
  | Priority_queue cap ->
    let pq = match side with L -> t.pq_l | R -> t.pq_r in
    Ctx.charge_span t.ctx t.sp_pq t.ctx.Ctx.costs.pq_op;
    Heap.push pq (key_of t side tuple, tuple);
    if Heap.length pq <= cap then []
    else begin
      Ctx.charge_span t.ctx t.sp_pq t.ctx.Ctx.costs.pq_op;
      let _, oldest = Heap.pop pq in
      route t side oldest
    end

(* Interleaved drain: always advance the queue whose head key is smaller,
   so the merge join sees one globally re-ordered tail per side. *)
let drain t =
  let outs = ref [] in
  let pop side pq =
    Ctx.charge_span t.ctx t.sp_pq t.ctx.Ctx.costs.pq_op;
    let _, tuple = Heap.pop pq in
    outs := List.rev_append (route t side tuple) !outs
  in
  let rec go () =
    match Heap.peek t.pq_l, Heap.peek t.pq_r with
    | None, None -> ()
    | Some _, None ->
      pop L t.pq_l;
      go ()
    | None, Some _ ->
      pop R t.pq_r;
      go ()
    | Some (kl, _), Some (kr, _) ->
      if Tuple.compare_key kl kr <= 0 then pop L t.pq_l else pop R t.pq_r;
      go ()
  in
  go ();
  List.rev !outs

(* Join one spilled region: all left/right pairs except those already
   joined in memory (both epoch 0 within the same operator).  A table
   over the right rows gives each key's matches newest first, and its
   cursors are positions in [rs].  As in [Hash_table], a key with a NULL
   column matches nothing. *)
let resolve_region t region =
  let c = t.ctx.Ctx.costs in
  let ls = t.disk_l.(region) and rs = t.disk_r.(region) in
  if ls = [] || rs = [] then []
  else begin
    Ctx.charge_span t.ctx t.sp_overflow
      (c.spill_read *. float_of_int (List.length ls + List.length rs));
    let table =
      t.region_table
        (Row_log.view_of_list (List.map (fun e -> e.d_tuple) rs))
    in
    let rs = Array.of_list rs in
    Array.iter (fun _ -> Ctx.charge_span t.ctx t.sp_overflow c.hash_build) rs;
    let acc = ref [] in
    List.iter
      (fun le ->
        let cur = Hash_table.probe_tuple table le.d_tuple t.lkey in
        let n = Hash_table.count table cur in
        Ctx.charge_span t.ctx t.sp_overflow
          (c.hash_probe +. (c.per_match *. float_of_int n));
        let rec walk cur =
          if cur >= 0 then begin
            let re = rs.(cur) in
            let already_joined =
              le.d_epoch = 0 && re.d_epoch = 0 && le.d_op = re.d_op
            in
            if not already_joined then
              acc := Tuple.concat le.d_tuple re.d_tuple :: !acc;
            walk (Hash_table.next table cur)
          end
        in
        walk cur)
      ls;
    !acc
  end

(* The matches at [cur] joined with the scanned tuple [s], newest first,
   consed onto [acc]; returns how many there were. *)
let rec cross_matches tbl ~scan_left s acc n cur =
  if cur < 0 then n
  else begin
    let m = Hash_table.row tbl cur in
    acc := (if scan_left then Tuple.concat s m else Tuple.concat m s) :: !acc;
    cross_matches tbl ~scan_left s acc (n + 1) (Hash_table.next tbl cur)
  end

let finish t =
  if t.finished then invalid_arg "Comp_join.finish: already finished";
  t.finished <- true;
  let drained = drain t in
  (* Mini stitch-up: merge.h(R) ⋈ hash.h(S) and hash.h(R) ⋈ merge.h(S). *)
  let c = t.ctx.Ctx.costs in
  (* Structure-to-structure decisions (§3.4.3): skip empty combinations
     outright, and scan the smaller structure while probing the larger. *)
  let cross ltbl rtbl =
    if Hash_table.length ltbl = 0 || Hash_table.length rtbl = 0 then []
    else begin
      let scan_left = Hash_table.length ltbl <= Hash_table.length rtbl in
      let scan, probe_tbl, scan_key =
        if scan_left then ltbl, rtbl, t.lkey else rtbl, ltbl, t.rkey
      in
      (* Scan order is hash order; sorting the combination gives stitch-up
         output a deterministic key order independent of insertion
         history. *)
      let acc = ref [] in
      List.iter
        (fun s ->
          let n =
            cross_matches probe_tbl ~scan_left s acc 0
              (Hash_table.probe_tuple probe_tbl s scan_key)
          in
          Ctx.charge_span t.ctx t.sp_stitch
            (c.hash_probe +. (c.per_match *. float_of_int n)))
        (Hash_table.to_list scan);
      List.sort Tuple.compare (List.rev !acc)
    end
  in
  let s1 = cross (Sym_join.left_table t.merge) (Sym_join.right_table t.hash) in
  let s2 = cross (Sym_join.left_table t.hash) (Sym_join.right_table t.merge) in
  t.stitch_out <- List.length s1 + List.length s2;
  (* Overflow resolution for the spilled regions. *)
  let overflow = ref [] in
  for region = 0 to t.n_regions - 1 do
    if t.spilled.(region) then
      overflow := List.rev_append (resolve_region t region) !overflow
  done;
  t.overflow_out <- List.length !overflow;
  drained @ s1 @ s2 @ List.rev !overflow

type stats = {
  merge_routed : int * int;
  hash_routed : int * int;
  merge_out : int;
  hash_out : int;
  stitch_out : int;
  spilled_regions : int;
  spilled_tuples : int;
  overflow_out : int;
}

let stats t =
  { merge_routed = t.merge_l, t.merge_r;
    hash_routed = t.hash_l, t.hash_r;
    merge_out = Sym_join.out_count t.merge;
    hash_out = Sym_join.out_count t.hash;
    stitch_out = t.stitch_out;
    spilled_regions =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.spilled;
    spilled_tuples = t.spilled_tuples;
    overflow_out = t.overflow_out }
