(* Order pins: MD5 digests of what the engine produces, in the order it
   produces it, on runs that cover every join-state path — corrective
   phases that switch and stitch up, windowed pre-aggregation under a
   static plan, the eddy's SteMs, complementary joins and plan
   partitioning — plus the statistics corrective runs learn, the bytes
   of every checkpoint file two corrective runs write, one of them with
   pre-aggregation groups buffered, and the reuse counts of a stitch-up
   after a resume.  A bag comparison cannot see a reordered emission, a
   float summed in another order, or a checkpoint that lists a node's
   rows differently; these digests can.
   A change meant only to speed the engine up must leave every one of
   them as it is. *)

open Adp_relation
open Adp_exec
open Adp_optimizer
open Adp_core
open Adp_query
open Adp_datagen
open Adp_recovery

let scale = 0.004

let uniform =
  lazy (Tpch.generate { Tpch.scale; distribution = Tpch.Uniform; seed = 42 })

(* A tag and the content of each value, floats by their bit pattern. *)
let add_value buf = function
  | Value.Null -> Buffer.add_char buf 'N'
  | Value.Int i ->
    Buffer.add_char buf 'I';
    Buffer.add_int64_le buf (Int64.of_int i)
  | Value.Float f ->
    Buffer.add_char buf 'F';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char buf 'S';
    Buffer.add_int32_le buf (Int32.of_int (String.length s));
    Buffer.add_string buf s
  | Value.Date d ->
    Buffer.add_char buf 'D';
    Buffer.add_int64_le buf (Int64.of_int d)

(* The rows in the given order, then the virtual completion time. *)
let digest_rows ~time rows =
  let buf = Buffer.create 4096 in
  List.iter
    (fun row ->
      Buffer.add_char buf '|';
      Array.iter (add_value buf) row)
    rows;
  Buffer.add_int64_le buf (Int64.bits_of_float time);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest_outcome (o : Strategy.outcome) =
  digest_rows ~time:o.Strategy.report.Report.time_s
    (Relation.to_list o.Strategy.result)

(* The costliest cross-product-free plan under the true statistics: the
   poor start the corrective runs must recover from. *)
let pessimal ds q =
  let catalog = Workload.catalog ~with_cardinalities:true ds q in
  (Optimizer.pessimal q catalog (Adp_stats.Selectivity.create ()))
    .Optimizer.spec

let corrective_config =
  { Corrective.default_config with
    poll_interval = 2e4; min_leaf_seen = 200; switch_threshold = 0.8 }

let run ?preagg ?initial_plan ?(config = corrective_config) strategy qid =
  let ds = Lazy.force uniform in
  let q = Workload.query qid in
  let initial_plan =
    match initial_plan with Some f -> Some (f ds q) | None -> None
  in
  let strategy =
    match strategy with
    | `Corrective -> Strategy.Corrective config
    | `Static -> Strategy.Static
    | `Eddy -> Strategy.Eddying
    | `Partitioned -> Strategy.Plan_partitioned
  in
  Strategy.run ?preagg ?initial_plan strategy q
    (Workload.catalog ds q) ~sources:(Workload.sources ds q)

let check_run name ~want ?phases o =
  (match phases with
   | Some n ->
     Alcotest.(check int) (name ^ ": phases") n o.Strategy.report.Report.phases
   | None -> ());
  Alcotest.(check string) (name ^ ": rows in produced order") want
    (digest_outcome o)

let test_corrective () =
  List.iter
    (fun (qid, phases, want) ->
      check_run ("corrective " ^ Workload.name qid) ~want ~phases
        (run ~initial_plan:pessimal `Corrective qid))
    [ Workload.Q3A, 1, "2c52da87eed04d7b95989079ab5307ef";
      Workload.Q5, 2, "1cd999d469d9a681f9aa814fa9273496";
      Workload.Q10A, 2, "b09c6863a9b06a03187354b35b5dc0ee" ]

let test_static_windowed_preagg () =
  let preagg =
    Optimizer.Force (Plan.Windowed { initial = 64; max_window = 65536 })
  in
  List.iter
    (fun (qid, want) ->
      check_run ("static preagg " ^ Workload.name qid) ~want
        (run ~preagg `Static qid))
    [ Workload.Q3A, "51b9166934618c2629ca806c2b8d6fa6";
      Workload.Q10A, "5ed67c2ddfb271c1d0974110833accce" ]

let test_eddy_and_partitioning () =
  check_run "eddy Q3A" ~want:"a072da405bc60ec078caf338eb2436de"
    (run `Eddy Workload.Q3A);
  check_run "eddy Q5" ~want:"b1b55dbb8f64425f68fbcd9b6f27b55e"
    (run `Eddy Workload.Q5);
  check_run "plan partitioning Q5" ~want:"2c2b640973a1e0dc1ad244dc290d6138"
    (run ~initial_plan:pessimal `Partitioned Workload.Q5)

(* LINEITEM ⋈ ORDERS with 1% of each input swapped out of order, so both
   the merge and the hash join of the pair hold tuples and the mini
   stitch-up has work; a small budget makes it spill regions too. *)
let test_complementary_joins () =
  let ds = Lazy.force uniform in
  let rng = Prng.create 7 in
  let li = Perturb.swap_fraction rng ds.Tpch.lineitem 0.01
  and ord = Perturb.swap_fraction rng ds.Tpch.orders 0.01 in
  let go ?memory_budget variant =
    let ctx = Ctx.create () in
    let j =
      Comp_join.create ?memory_budget ctx ~variant
        ~left_schema:(Relation.schema li) ~right_schema:(Relation.schema ord)
        ~left_key:[ "lineitem.l_orderkey" ] ~right_key:[ "orders.o_orderkey" ]
    in
    let out = ref [] in
    let consume src t =
      let side = if Source.name src = "l" then Comp_join.L else Comp_join.R in
      out := List.rev_append (Comp_join.insert j side t) !out
    in
    ignore
      (Driver.run ctx
         ~sources:
           [ Source.create ~name:"l" li Source.Local;
             Source.create ~name:"o" ord Source.Local ]
         ~consume ());
    let rows = List.rev_append !out (Comp_join.finish j) in
    let st = Comp_join.stats j in
    ( st.Comp_join.stitch_out > 0,
      st.Comp_join.overflow_out > 0,
      digest_rows ~time:(Ctx.now ctx) rows )
  in
  let check name ~spills want (stitched, spilled, got) =
    Alcotest.(check bool) (name ^ ": mini stitch-up or overflow has work")
      true (stitched || spilled);
    Alcotest.(check bool) (name ^ ": overflow resolution") spills spilled;
    Alcotest.(check string) (name ^ ": rows in produced order") want got
  in
  check "naive" ~spills:false "b41e62ca8f3041bd3a15a8a35bccd32a"
    (go Comp_join.Naive);
  check "priority queue" ~spills:false "4190b4ffeb5c75e25b0c795d37f9ecc1"
    (go (Comp_join.Priority_queue 64));
  check "naive, spilling" ~spills:true "13c8cab50c46f8043f656bdf1a070d24"
    (go ~memory_budget:2000 Comp_join.Naive)

(* What the monitor learned, floats by their bit pattern: every
   signature's selectivity and predicted output, every cardinality and
   multiplicative factor.  The sorted-pair range estimate (orders and
   lineitem arrive sorted on the order key) and the histogram estimator
   both write here.  A reading that changes no plan choice reaches no
   row or virtual time, so only this digest sees it. *)
let digest_learned (d : Adp_stats.Selectivity.dump) =
  let buf = Buffer.create 4096 in
  let floats tag l =
    Buffer.add_string buf tag;
    List.iter
      (fun (k, x) ->
        Buffer.add_string buf k;
        Buffer.add_int64_le buf (Int64.bits_of_float x))
      l
  and ints tag l =
    Buffer.add_string buf tag;
    List.iter
      (fun (k, n) ->
        Buffer.add_string buf k;
        Buffer.add_int64_le buf (Int64.of_int n))
      l
  in
  floats "sels" d.Adp_stats.Selectivity.d_sels;
  floats "outs" d.Adp_stats.Selectivity.d_outs;
  ints "cards" d.Adp_stats.Selectivity.d_cards;
  ints "finals" d.Adp_stats.Selectivity.d_finals;
  floats "mult" d.Adp_stats.Selectivity.d_mult;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_learned_statistics () =
  List.iter
    (fun (qid, use_histograms, want) ->
      let config = { corrective_config with use_histograms } in
      let o = run ~initial_plan:pessimal ~config `Corrective qid in
      let s = Option.get o.Strategy.corrective_stats in
      Alcotest.(check string)
        (Printf.sprintf "%s%s: learned statistics" (Workload.name qid)
           (if use_histograms then " with histograms" else ""))
        want
        (digest_learned s.Corrective.learned))
    [ Workload.Q5, false, "6a15cb128374653432551872fbee3d1d";
      Workload.Q3A, false, "8720df9af98adee246c8794efc752a5d";
      Workload.Q3A, true, "76b18f33f5a263a996575337eec6eb1b";
      Workload.Q10A, true, "89d95ad47cf828a8314d4d92d96d362e" ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Every checkpoint file's bytes, in file name order, and the files. *)
let checkpoint_digest dir =
  let files = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
  let buf = Buffer.create 65_536 in
  List.iter
    (fun f ->
      Buffer.add_string buf f;
      Buffer.add_string buf
        (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
    files;
  files, Digest.to_hex (Digest.string (Buffer.contents buf))

(* Q5 from the pessimal plan writes a checkpoint every 2000 source tuples
   and one at the phase boundary; every file's bytes are pinned, in file
   name order. *)
let test_checkpoint_bytes () =
  let dir = "pins-ckpt" in
  rm_rf dir;
  let config =
    { corrective_config with
      checkpoint = Some (Checkpoint.policy ~every_tuples:2000 ~dir ()) }
  in
  let o = run ~initial_plan:pessimal ~config `Corrective Workload.Q5 in
  Alcotest.(check int) "phases" 2 o.Strategy.report.Report.phases;
  let files, digest = checkpoint_digest dir in
  rm_rf dir;
  Alcotest.(check int) "checkpoint files" 17 (List.length files);
  Alcotest.(check string) "checkpoint bytes" "bae21d29f01056b2650eb294802728f0"
    digest

(* Buffered pre-aggregation groups across a checkpoint's phases. *)
let buffered_groups (ck : Checkpoint.t) =
  let rec groups (st : Plan.state) =
    match st.Plan.st_impl with
    | Plan.St_leaf _ -> 0
    | Plan.St_join j -> groups j.st_left + groups j.st_right
    | Plan.St_preagg p -> List.length p.st_pa.Plan.ps_groups + groups p.st_child
  in
  List.fold_left
    (fun n (pr : Checkpoint.phase_record) -> n + groups pr.Checkpoint.pr_state)
    0
    (ck.Checkpoint.completed @ Option.to_list ck.Checkpoint.current)

(* Q3A under windowed pre-aggregation writes a checkpoint every 1500
   source tuples, mostly while groups are buffered mid-window, so the
   files pin how a pre-aggregation's groups are encoded. *)
let test_checkpoint_preagg_bytes () =
  let dir = "pins-ckpt-preagg" in
  rm_rf dir;
  let config =
    { corrective_config with
      checkpoint = Some (Checkpoint.policy ~every_tuples:1500 ~dir ()) }
  in
  let preagg =
    Optimizer.Force (Plan.Windowed { initial = 64; max_window = 65536 })
  in
  ignore (run ~preagg ~config `Corrective Workload.Q3A : Strategy.outcome);
  let files, digest = checkpoint_digest dir in
  let buffered =
    List.filter
      (fun f ->
        match Checkpoint.load (Filename.concat dir f) with
        | Ok ck -> buffered_groups ck > 0
        | Error _ -> Alcotest.failf "%s does not load" f)
      files
  in
  rm_rf dir;
  Alcotest.(check int) "checkpoint files" 21 (List.length files);
  Alcotest.(check int) "files with buffered groups" 20 (List.length buffered);
  Alcotest.(check string) "checkpoint bytes" "237c229422118fbe6c4edf9cf7dd0263"
    digest

(* Q10A from the pessimal plan crashes after 30,000 source tuples, once
   it has switched plans, and resumes from its newest checkpoint: two
   restored phases and a new one.  The restored phases' intermediates are
   found and reused as a live run's are, so the resumed stitch-up's reuse
   accounting is pinned. *)
let test_resume_reuse_accounting () =
  let dir = "pins-ckpt-resume" in
  rm_rf dir;
  let config =
    { corrective_config with
      checkpoint = Some (Checkpoint.policy ~every_tuples:2000 ~dir ());
      crash = [ Crash.After_tuples 30_000 ] }
  in
  (match run ~initial_plan:pessimal ~config `Corrective Workload.Q10A with
   | _ -> Alcotest.fail "expected a crash"
   | exception Crash.Crashed _ -> ());
  let config = { corrective_config with resume_from = Some dir } in
  let o = run ~initial_plan:pessimal ~config `Corrective Workload.Q10A in
  rm_rf dir;
  let s = Option.get o.Strategy.corrective_stats in
  Alcotest.(check (list int)) "restored phases, phases" [ 2; 3 ]
    [ s.Corrective.resumed_phases; s.Corrective.phases ];
  Alcotest.(check (list int)) "reused, discarded, output, recomputed"
    [ 3091; 4686; 5260; 1058 ]
    [ s.Corrective.stitch.Stitchup.reused;
      s.Corrective.stitch.Stitchup.discarded;
      s.Corrective.stitch.Stitchup.output;
      s.Corrective.stitch.Stitchup.recomputed_uniform ]

let suite =
  [ Alcotest.test_case "corrective from the pessimal plan" `Quick
      test_corrective;
    Alcotest.test_case "static with windowed pre-aggregation" `Quick
      test_static_windowed_preagg;
    Alcotest.test_case "eddy and plan partitioning" `Quick
      test_eddy_and_partitioning;
    Alcotest.test_case "complementary joins" `Quick test_complementary_joins;
    Alcotest.test_case "statistics the monitor learned" `Quick
      test_learned_statistics;
    Alcotest.test_case "checkpoint file bytes" `Quick test_checkpoint_bytes;
    Alcotest.test_case "checkpoint file bytes, buffered pre-aggregation"
      `Quick test_checkpoint_preagg_bytes;
    Alcotest.test_case "reuse accounting across a resume" `Quick
      test_resume_reuse_accounting ]
