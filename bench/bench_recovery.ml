(* Crash–recovery sweep: what checkpoints cost a healthy run, and what a
   crash costs a checkpointed one.

   First the overhead side: the same corrective execution with
   every-N-tuples checkpointing at increasing frequency, against the
   checkpoint-free baseline.  Then the recovery side: the run is crashed
   at four execution points (early mid-phase, late mid-phase, at the
   phase boundary, during stitch-up), resumed from the last checkpoint on
   disk, and the recovered execution's completion time — which includes
   the virtual time the interrupted run had already spent — and its
   result are compared against the uninterrupted baseline.  Results feed
   BENCH_recovery.json. *)

open Adp_relation
open Adp_exec
open Adp_core
open Adp_query
open Bench_common
module Checkpoint = Adp_recovery.Checkpoint
module Crash = Adp_recovery.Crash

let qid = Workload.Q3A
let dir = "_bench_ckpt"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run_one ?checkpoint ?resume_from ?(crash = []) () =
  let ds = Lazy.force uniform in
  let q = Workload.query qid in
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  let config =
    { corrective_config with Corrective.checkpoint; resume_from; crash }
  in
  Strategy.run ~label:"recovery" (Strategy.Corrective config) q catalog
    ~sources:(Workload.sources ~model:Source.Local ds q)

let total_input () =
  let ds = Lazy.force uniform in
  let q = Workload.query qid in
  List.fold_left
    (fun acc s -> acc + Source.cardinality s)
    0
    (Workload.sources ~model:Source.Local ds q ())

(* Aggregation results are float sums; resumption reorders the summation,
   so compare with a relative tolerance (as the test suite does). *)
let value_approx a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
    Float.abs (x -. y) /. scale < 1e-9
  | _ -> Value.equal a b

let matches_baseline a b =
  let sort r = List.sort Tuple.compare (Relation.to_list r) in
  let la = sort a and lb = sort b in
  List.length la = List.length lb
  && List.for_all2
       (fun ta tb ->
         Array.length ta = Array.length tb
         && Array.for_all2 value_approx ta tb)
       la lb

let crash_label pt = Format.asprintf "%a" Crash.pp_point pt

let run () =
  let n = total_input () in
  Printf.printf
    "%s, local arrival; %d input tuples.  Checkpoint overhead, then \
     crash+resume at four execution points.\n"
    (Workload.name qid) n;
  let baseline = run_one () in
  let btime = baseline.Strategy.report.Report.time_s in
  (* Overhead: healthy runs under increasingly eager policies. *)
  let everies = List.map (fun d -> max 1 (n / d)) [ 4; 10; 40 ] in
  let overhead =
    List.map
      (fun every ->
        rm_rf dir;
        let o =
          run_one ~checkpoint:(Checkpoint.policy ~every_tuples:every ~dir ())
            ()
        in
        rm_rf dir;
        let r = o.Strategy.report in
        (every, r.Report.time_s, r.Report.wall_s, r.Report.checkpoints))
      everies
  in
  (* Checkpoints are written outside the simulated execution, so virtual
     completion time should not move; the real cost is wall clock. *)
  Report.table
    ~title:"Checkpoint overhead: every-N-tuples policies vs no checkpoints"
    ~header:[ "policy"; "virtual time"; "wall clock"; "checkpoints" ]
    (( [ "none (baseline)"; seconds btime;
         seconds baseline.Strategy.report.Report.wall_s; "0" ] )
     :: List.map
          (fun (every, t, wall, ckpts) ->
            [ Printf.sprintf "every %d tuples" every; seconds t;
              seconds wall; string_of_int ckpts ])
          overhead);
  (* Recovery: crash, resume from disk, compare against the baseline. *)
  let points =
    [ Crash.After_tuples (n / 4); Crash.After_tuples (n * 3 / 5);
      Crash.At_phase_boundary 0; Crash.During_stitchup ]
  in
  let every = max 1 (n / 20) in
  let recoveries =
    List.map
      (fun pt ->
        rm_rf dir;
        let policy = Checkpoint.policy ~every_tuples:every ~dir () in
        let crashed =
          try
            ignore (run_one ~checkpoint:policy ~crash:[ pt ] ());
            false
          with Crash.Crashed _ -> true
        in
        let o = run_one ~resume_from:dir () in
        rm_rf dir;
        let resumed =
          match o.Strategy.corrective_stats with
          | Some s -> s.Corrective.resumed_phases
          | None -> 0
        in
        (pt, crashed, o, resumed, matches_baseline o.Strategy.result
                                    baseline.Strategy.result))
      points
  in
  Report.table
    ~title:
      "Crash + resume: recovered completion time (includes pre-crash \
       virtual time) and result fidelity"
    ~header:
      [ "crash point"; "crashed"; "resume time"; "vs baseline";
        "restored phases"; "result = baseline" ]
    (List.map
       (fun (pt, crashed, o, resumed, ok) ->
         let t = o.Strategy.report.Report.time_s in
         [ crash_label pt; string_of_bool crashed; seconds t;
           Printf.sprintf "%+.1f%%" (100.0 *. (t -. btime) /. btime);
           string_of_int resumed; string_of_bool ok ])
       recoveries);
  Bjson.emit ~bench:"recovery"
    (Bjson.count "total-input" n
     :: Bjson.time "baseline/time" btime
     :: List.concat_map
          (fun (every, t, wall, ckpts) ->
            let key = Printf.sprintf "overhead/every-%d" every in
            [ Bjson.time (key ^ "/time") t; Bjson.wall (key ^ "/wall") wall;
              Bjson.count (key ^ "/checkpoints") ckpts ])
          overhead
     @ List.concat_map
         (fun (pt, crashed, o, resumed, ok) ->
           let key = Bjson.slug ("crash/" ^ crash_label pt) in
           [ Bjson.flag (key ^ "/crashed") crashed;
             Bjson.time (key ^ "/resume-time")
               o.Strategy.report.Report.time_s;
             Bjson.count (key ^ "/resumed-phases") resumed;
             Bjson.flag (key ^ "/matches-baseline") ok ])
         recoveries)
