type point = Poll | Phase_close | Stitchup

type observation = {
  o_phase : string;
  o_at : float;
  o_point : point;
  o_node : string;
  o_est : float;
  o_actual : float;
  o_q : float;
}

type verdict =
  | Switched
  | Kept_same_plan
  | Kept_cost
  | Kept_guard of string

type decision = {
  d_phase : string;
  d_at : float;
  d_verdict : verdict;
  d_current_cost : float;
  d_best_cost : float;
  d_switch_cost : float;
  d_threshold : float;
  d_margin : float;
  d_blame : (string * float) option;
}

type t = {
  mutable obs_rev : observation list;
  mutable dec_rev : decision list;
}

let create () = { obs_rev = []; dec_rev = [] }

let q_error ~est ~actual =
  let est = Float.max 1.0 est and actual = Float.max 1.0 actual in
  Float.max 1.0 (Float.max (est /. actual) (actual /. est))

let observe t ~phase ~at ~point ~node ~est ~actual =
  t.obs_rev <-
    { o_phase = phase; o_at = at; o_point = point; o_node = node;
      o_est = est; o_actual = actual; o_q = q_error ~est ~actual }
    :: t.obs_rev

let observations t = List.rev t.obs_rev
let decisions t = List.rev t.dec_rev

let latest_by_node t =
  (* Walk oldest -> newest so insertion order is first appearance and the
     stored observation ends up the latest. *)
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun o ->
      if not (Hashtbl.mem tbl o.o_node) then order := o.o_node :: !order;
      Hashtbl.replace tbl o.o_node o)
    (observations t);
  List.rev_map (fun node -> (node, Hashtbl.find tbl node)) !order

let worst t =
  List.fold_left
    (fun acc (node, o) ->
      match acc with
      | Some (_, q) when q >= o.o_q -> acc
      | _ -> Some (node, o.o_q))
    None (latest_by_node t)

let decide t ~phase ~at ~verdict ~current_cost ~best_cost ~switch_cost
    ~threshold =
  t.dec_rev <-
    { d_phase = phase; d_at = at; d_verdict = verdict;
      d_current_cost = current_cost; d_best_cost = best_cost;
      d_switch_cost = switch_cost; d_threshold = threshold;
      d_margin = switch_cost -. (threshold *. current_cost);
      d_blame = worst t }
    :: t.dec_rev

let point_name = function
  | Poll -> "poll"
  | Phase_close -> "phase-close"
  | Stitchup -> "stitch-up"

let verdict_name = function
  | Switched -> "switch"
  | Kept_same_plan -> "keep (same plan)"
  | Kept_cost -> "keep (switch too expensive)"
  | Kept_guard g -> "keep (guard: " ^ g ^ ")"

let pp_decision ppf d =
  Format.fprintf ppf
    "[%12.6f s] %s: %s@.    cost-to-go %.0f, best %.0f, switch cost %.0f \
     vs. bar %.2f x %.0f = %.0f (margin %+.0f)@."
    d.d_at d.d_phase (verdict_name d.d_verdict) d.d_current_cost d.d_best_cost
    d.d_switch_cost d.d_threshold d.d_current_cost
    (d.d_threshold *. d.d_current_cost)
    d.d_margin;
  match d.d_blame with
  | Some (node, q) ->
    Format.fprintf ppf "    blame: %s (q-error %.2f)@." node q
  | None -> Format.fprintf ppf "    blame: none (no observations yet)@."

let render ppf t =
  let latest = latest_by_node t in
  if latest <> [] then begin
    Format.fprintf ppf "calibration (latest per node):@.";
    List.iter
      (fun (node, o) ->
        Format.fprintf ppf
          "  %-40s est %10.0f  actual %10.0f  q-error %8.2f  (%s, %s)@."
          node o.o_est o.o_actual o.o_q o.o_phase (point_name o.o_point))
      latest
  end;
  let ds = decisions t in
  if ds <> [] then begin
    Format.fprintf ppf "decisions:@.";
    List.iter (pp_decision ppf) ds
  end
