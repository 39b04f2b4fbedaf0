open Adp_relation
open Adp_storage
open Adp_exec
module S = Snapshot

let bad what tag =
  raise (S.Corrupt (Printf.sprintf "bad %s tag %d" what tag))

(* ---------------- scalar expressions ---------------- *)

let rec expr b = function
  | Expr.Col c ->
    S.u8 b 0;
    S.str b c
  | Expr.Const v ->
    S.u8 b 1;
    S.value b v
  | Expr.Add (x, y) ->
    S.u8 b 2;
    expr b x;
    expr b y
  | Expr.Sub (x, y) ->
    S.u8 b 3;
    expr b x;
    expr b y
  | Expr.Mul (x, y) ->
    S.u8 b 4;
    expr b x;
    expr b y
  | Expr.Div (x, y) ->
    S.u8 b 5;
    expr b x;
    expr b y

let rec read_expr d =
  match S.read_u8 d with
  | 0 -> Expr.Col (S.read_str d)
  | 1 -> Expr.Const (S.read_value d)
  | 2 ->
    let x = read_expr d in
    Expr.Add (x, read_expr d)
  | 3 ->
    let x = read_expr d in
    Expr.Sub (x, read_expr d)
  | 4 ->
    let x = read_expr d in
    Expr.Mul (x, read_expr d)
  | 5 ->
    let x = read_expr d in
    Expr.Div (x, read_expr d)
  | n -> bad "expr" n

(* ---------------- predicates ---------------- *)

let cmp_tag = function
  | Predicate.Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5

let read_cmp d =
  match S.read_u8 d with
  | 0 -> Predicate.Eq
  | 1 -> Ne
  | 2 -> Lt
  | 3 -> Le
  | 4 -> Gt
  | 5 -> Ge
  | n -> bad "cmp" n

let rec pred b = function
  | Predicate.True -> S.u8 b 0
  | Predicate.Cmp (c, col, v) ->
    S.u8 b 1;
    S.u8 b (cmp_tag c);
    S.str b col;
    S.value b v
  | Predicate.Col_cmp (c, a, bb) ->
    S.u8 b 2;
    S.u8 b (cmp_tag c);
    S.str b a;
    S.str b bb
  | Predicate.Between (col, lo, hi) ->
    S.u8 b 3;
    S.str b col;
    S.value b lo;
    S.value b hi
  | Predicate.In (col, vs) ->
    S.u8 b 4;
    S.str b col;
    S.list S.value b vs
  | Predicate.Not p ->
    S.u8 b 5;
    pred b p
  | Predicate.And (p, q) ->
    S.u8 b 6;
    pred b p;
    pred b q
  | Predicate.Or (p, q) ->
    S.u8 b 7;
    pred b p;
    pred b q

let rec read_pred d =
  match S.read_u8 d with
  | 0 -> Predicate.True
  | 1 ->
    let c = read_cmp d in
    let col = S.read_str d in
    Predicate.Cmp (c, col, S.read_value d)
  | 2 ->
    let c = read_cmp d in
    let a = S.read_str d in
    Predicate.Col_cmp (c, a, S.read_str d)
  | 3 ->
    let col = S.read_str d in
    let lo = S.read_value d in
    Predicate.Between (col, lo, S.read_value d)
  | 4 ->
    let col = S.read_str d in
    Predicate.In (col, S.read_list S.read_value d)
  | 5 -> Predicate.Not (read_pred d)
  | 6 ->
    let p = read_pred d in
    Predicate.And (p, read_pred d)
  | 7 ->
    let p = read_pred d in
    Predicate.Or (p, read_pred d)
  | n -> bad "predicate" n

(* ---------------- aggregates ---------------- *)

let agg_spec b (a : Aggregate.spec) =
  S.u8 b
    (match a.fn with Count -> 0 | Sum -> 1 | Min -> 2 | Max -> 3 | Avg -> 4);
  expr b a.expr;
  S.str b a.name

let read_agg_spec d : Aggregate.spec =
  let fn =
    match S.read_u8 d with
    | 0 -> Aggregate.Count
    | 1 -> Sum
    | 2 -> Min
    | 3 -> Max
    | 4 -> Avg
    | n -> bad "aggregate fn" n
  in
  let expr = read_expr d in
  { fn; expr; name = S.read_str d }

(* ---------------- plan specs ---------------- *)

let preagg_mode b = function
  | Plan.Windowed { initial; max_window } ->
    S.u8 b 0;
    S.int b initial;
    S.int b max_window
  | Plan.Traditional -> S.u8 b 1
  | Plan.Pseudogroup -> S.u8 b 2
  | Plan.Punctuated -> S.u8 b 3

let read_preagg_mode d =
  match S.read_u8 d with
  | 0 ->
    let initial = S.read_int d in
    Plan.Windowed { initial; max_window = S.read_int d }
  | 1 -> Plan.Traditional
  | 2 -> Plan.Pseudogroup
  | 3 -> Plan.Punctuated
  | n -> bad "preagg mode" n

let rec spec b = function
  | Plan.Scan { source; filter } ->
    S.u8 b 0;
    S.str b source;
    pred b filter
  | Plan.Join { left; right; left_key; right_key } ->
    S.u8 b 1;
    spec b left;
    spec b right;
    S.list S.str b left_key;
    S.list S.str b right_key
  | Plan.Preagg { child; group_cols; aggs; mode } ->
    S.u8 b 2;
    spec b child;
    S.list S.str b group_cols;
    S.list agg_spec b aggs;
    preagg_mode b mode

let rec read_spec d =
  match S.read_u8 d with
  | 0 ->
    let source = S.read_str d in
    Plan.Scan { source; filter = read_pred d }
  | 1 ->
    let left = read_spec d in
    let right = read_spec d in
    let left_key = S.read_list S.read_str d in
    Plan.Join { left; right; left_key; right_key = S.read_list S.read_str d }
  | 2 ->
    let child = read_spec d in
    let group_cols = S.read_list S.read_str d in
    let aggs = S.read_list read_agg_spec d in
    Plan.Preagg { child; group_cols; aggs; mode = read_preagg_mode d }
  | n -> bad "plan spec" n

(* ---------------- plan runtime state ---------------- *)

(* A node's outputs are a count, then the rows newest first (format 4). *)
let rec plan_state b (st : Plan.state) =
  S.int b (Row_log.view_length st.st_outputs);
  Row_log.view_rev_iter (S.tuple b) st.st_outputs;
  S.int b st.st_out_count;
  match st.st_impl with
  | Plan.St_leaf { seen } ->
    S.u8 b 0;
    S.int b seen
  | Plan.St_join { st_left; st_right; lswapped; rswapped } ->
    S.u8 b 1;
    plan_state b st_left;
    plan_state b st_right;
    S.bool b lswapped;
    S.bool b rswapped
  | Plan.St_preagg { st_child; st_pa } ->
    S.u8 b 2;
    plan_state b st_child;
    S.int b st_pa.ps_window;
    S.int b st_pa.ps_in_window;
    S.int b st_pa.ps_in_total;
    S.int b st_pa.ps_out_total;
    S.list (S.pair S.tuple S.tuple) b st_pa.ps_groups

let rec read_plan_state d : Plan.state =
  let st_outputs =
    Row_log.view_of_list (List.rev (S.read_list S.read_tuple d))
  in
  let st_out_count = S.read_int d in
  let st_impl =
    match S.read_u8 d with
    | 0 -> Plan.St_leaf { seen = S.read_int d }
    | 1 ->
      let st_left = read_plan_state d in
      let st_right = read_plan_state d in
      let lswapped = S.read_bool d in
      Plan.St_join { st_left; st_right; lswapped; rswapped = S.read_bool d }
    | 2 ->
      let st_child = read_plan_state d in
      let ps_window = S.read_int d in
      let ps_in_window = S.read_int d in
      let ps_in_total = S.read_int d in
      let ps_out_total = S.read_int d in
      let ps_groups = S.read_list (S.read_pair S.read_tuple S.read_tuple) d in
      Plan.St_preagg
        { st_child;
          st_pa =
            { ps_window; ps_in_window; ps_in_total; ps_out_total; ps_groups }
        }
    | n -> bad "plan state" n
  in
  { st_outputs; st_out_count; st_impl }

(* ---------------- clock ---------------- *)

let clock_state b (c : Clock.state) =
  S.f64 b c.s_now;
  S.f64 b c.s_cpu;
  S.f64 b c.s_idle;
  S.f64 b c.s_retry_idle

let read_clock_state d : Clock.state =
  let s_now = S.read_f64 d in
  let s_cpu = S.read_f64 d in
  let s_idle = S.read_f64 d in
  { s_now; s_cpu; s_idle; s_retry_idle = S.read_f64 d }

(* ---------------- observed statistics ---------------- *)

let stats_dump b (s : Adp_stats.Selectivity.dump) =
  S.list (S.pair S.str S.f64) b s.d_sels;
  S.list (S.pair S.str S.f64) b s.d_outs;
  S.list (S.pair S.str S.int) b s.d_cards;
  S.list (S.pair S.str S.int) b s.d_finals;
  S.list (S.pair S.str S.f64) b s.d_mult

let read_stats_dump d : Adp_stats.Selectivity.dump =
  let d_sels = S.read_list (S.read_pair S.read_str S.read_f64) d in
  let d_outs = S.read_list (S.read_pair S.read_str S.read_f64) d in
  let d_cards = S.read_list (S.read_pair S.read_str S.read_int) d in
  let d_finals = S.read_list (S.read_pair S.read_str S.read_int) d in
  { d_sels; d_outs; d_cards; d_finals;
    d_mult = S.read_list (S.read_pair S.read_str S.read_f64) d }
