type span = {
  phase : string;  (* scoped phase key *)
  node : string;
  depth : int;
  order : int;
  bucket : bool;
  parent : int option;  (* order of the pre-order parent *)
  mutable self_us : float;
  mutable tuples_in : int;
  mutable tuples_out : int;
  mutable probes : int;
  mutable builds : int;
  mutable mem_hw : int;
  mutable wall_s : float;
  mutable samples : int;
  mutable minor_words : float;
  mutable major_words : float;
}

type info = span

type t = {
  tbl : (string * string, span) Hashtbl.t;
  mutable rev : span list;  (* newest first *)
  mutable cur_phase : string;
  mutable cur_scope : string;
  mutable key : string;  (* "scope:phase", or the bare phase when unscoped *)
  mutable next_order : int;
}

let create () =
  { tbl = Hashtbl.create 64; rev = []; cur_phase = "phase 0"; cur_scope = "";
    key = "phase 0"; next_order = 0 }

let rekey t =
  t.key <-
    (if t.cur_scope = "" then t.cur_phase else t.cur_scope ^ ":" ^ t.cur_phase)

let set_phase t phase =
  t.cur_phase <- phase;
  rekey t

let set_scope t scope =
  t.cur_scope <- scope;
  rekey t

let register t ~bucket ~depth node =
  let key = (t.key, node) in
  match Hashtbl.find_opt t.tbl key with
  | Some sp -> sp
  | None ->
    (* Parent: the most recently registered non-bucket span of the same
       phase with a smaller depth — the pre-order ancestor.  Buckets hang
       off the phase root and never adopt children. *)
    let parent =
      if bucket || depth = 0 then None
      else
        List.find_opt
          (fun sp -> sp.phase = t.key && sp.depth < depth && not sp.bucket)
          t.rev
        |> Option.map (fun sp -> sp.order)
    in
    let sp =
      { phase = t.key; node; depth; order = t.next_order; bucket; parent;
        self_us = 0.0; tuples_in = 0; tuples_out = 0; probes = 0;
        builds = 0; mem_hw = 0; wall_s = 0.0; samples = 0;
        minor_words = 0.0; major_words = 0.0 }
    in
    t.next_order <- t.next_order + 1;
    Hashtbl.add t.tbl key sp;
    t.rev <- sp :: t.rev;
    sp

let span t ?(depth = 0) node = register t ~bucket:false ~depth node
let bucket t node = register t ~bucket:true ~depth:0 node

let add_time sp us = sp.self_us <- sp.self_us +. us
let add_in sp n = sp.tuples_in <- sp.tuples_in + n
let add_out sp n = sp.tuples_out <- sp.tuples_out + n
let add_probes sp n = sp.probes <- sp.probes + n
let add_builds sp n = sp.builds <- sp.builds + n
let note_mem sp n = if n > sp.mem_hw then sp.mem_hw <- n
let add_wall sp s = sp.wall_s <- sp.wall_s +. s

let add_sample sp ~minor_words ~major_words =
  sp.samples <- sp.samples + 1;
  sp.minor_words <- sp.minor_words +. minor_words;
  sp.major_words <- sp.major_words +. major_words

(* Reads hand out copies, so later charges never move a snapshot. *)
let spans t = List.rev_map (fun sp -> { sp with self_us = sp.self_us }) t.rev

let totals t =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      match Hashtbl.find_opt tbl i.node with
      | None ->
        order := i.node :: !order;
        Hashtbl.add tbl i.node { i with phase = "*"; parent = None }
      | Some acc ->
        add_time acc i.self_us;
        add_in acc i.tuples_in;
        add_out acc i.tuples_out;
        add_probes acc i.probes;
        add_builds acc i.builds;
        note_mem acc i.mem_hw;
        add_wall acc i.wall_s;
        acc.samples <- acc.samples + i.samples;
        acc.minor_words <- acc.minor_words +. i.minor_words;
        acc.major_words <- acc.major_words +. i.major_words)
    (spans t);
  List.rev_map (Hashtbl.find tbl) !order

(* The subtree of a span is the contiguous run of deeper spans after it;
   buckets inside that run belong to the phase, not to the subtree, and a
   bucket's own subtree is empty. *)
let cumulative_us l i =
  let arr = Array.of_list l in
  if i < 0 || i >= Array.length arr then 0.0
  else if arr.(i).bucket then arr.(i).self_us
  else begin
    let base = arr.(i).depth in
    let acc = ref arr.(i).self_us in
    let j = ref (i + 1) in
    while
      !j < Array.length arr && (arr.(!j).bucket || arr.(!j).depth > base)
    do
      if not arr.(!j).bucket then acc := !acc +. arr.(!j).self_us;
      incr j
    done;
    !acc
  end

let seconds us = us /. 1e6

let render ?annot ppf t =
  let all = spans t in
  let phases =
    List.fold_left
      (fun acc i -> if List.mem i.phase acc then acc else i.phase :: acc)
      [] all
    |> List.rev
  in
  List.iter
    (fun ph ->
      let l = List.filter (fun i -> i.phase = ph) all in
      Format.fprintf ppf "%s:@." ph;
      List.iteri
        (fun idx i ->
          let extra =
            match annot with
            | None -> ""
            | Some f ->
              (match f ~node:i.node with None -> "" | Some s -> " " ^ s)
          in
          Format.fprintf ppf
            "  %s%s  (self %.6fs, cum %.6fs, in %d, out %d, probes %d, \
             builds %d, mem %d)%s@."
            (String.make (2 * i.depth) ' ')
            i.node (seconds i.self_us)
            (seconds (cumulative_us l idx))
            i.tuples_in i.tuples_out i.probes i.builds i.mem_hw extra)
        l)
    phases
