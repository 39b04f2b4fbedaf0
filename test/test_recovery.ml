(* Checkpointed execution and crash recovery: the snapshot codec and
   container format, plan state capture/restore, checkpoint files (CRC
   rejection of torn writes), and the kill-and-resume end-to-end path —
   crash at three different execution points, resume from the last
   checkpoint, and obtain exactly the uninterrupted run's result. *)

open Adp_relation
open Adp_exec
open Adp_storage
open Adp_core
open Adp_query
open Adp_datagen
open Helpers
module Checkpoint = Adp_recovery.Checkpoint
module Codec = Adp_recovery.Codec
module Crash = Adp_recovery.Crash
module Diagnostic = Adp_analysis.Diagnostic
module Analyzer = Adp_analysis.Analyzer

(* Checkpoint directories live under the test runner's cwd (the dune
   sandbox); each test gets a fresh one. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d = Printf.sprintf "ckpt-test-%d" !dir_counter in
  rm_rf d;
  d

(* Same shape, counters, flags, groups and output rows.  A captured
   state shares its plan's logs, so [=] on states compares log chunks
   beyond the captured length, not the snapshot. *)
let rec equal_state (a : Plan.state) (b : Plan.state) =
  Row_log.view_to_list a.st_outputs = Row_log.view_to_list b.st_outputs
  && a.st_out_count = b.st_out_count
  &&
  match a.st_impl, b.st_impl with
  | St_leaf x, St_leaf y -> x.seen = y.seen
  | St_join x, St_join y ->
    equal_state x.st_left y.st_left
    && equal_state x.st_right y.st_right
    && x.lswapped = y.lswapped && x.rswapped = y.rswapped
  | St_preagg x, St_preagg y ->
    equal_state x.st_child y.st_child && x.st_pa = y.st_pa
  | (St_leaf _ | St_join _ | St_preagg _), _ -> false

(* ---------------- snapshot codec ---------------- *)

let test_snapshot_scalars () =
  let module S = Snapshot in
  let b = S.encoder () in
  List.iter (S.int b)
    [ 0; 1; -1; 63; 64; -64; -65; 300; -300; max_int; min_int ];
  S.str b "hello";
  S.str b "";
  S.f64 b 3.25;
  S.f64 b (-0.0);
  S.bool b true;
  S.value b (Value.Str "x");
  S.value b Value.Null;
  S.tuple b [| vi 7; vf 1.5; vs "y" |];
  let d = S.decoder (S.contents b) in
  List.iter
    (fun want -> Alcotest.(check int) "int roundtrip" want (S.read_int d))
    [ 0; 1; -1; 63; 64; -64; -65; 300; -300; max_int; min_int ];
  Alcotest.(check string) "str" "hello" (S.read_str d);
  Alcotest.(check string) "empty str" "" (S.read_str d);
  Alcotest.(check (float 0.0)) "f64" 3.25 (S.read_f64 d);
  Alcotest.(check (float 0.0)) "neg zero" (-0.0) (S.read_f64 d);
  Alcotest.(check bool) "bool" true (S.read_bool d);
  Alcotest.(check bool) "value str" true (S.read_value d = Value.Str "x");
  Alcotest.(check bool) "value null" true (S.read_value d = Value.Null);
  Alcotest.(check bool) "tuple" true
    (Tuple.equal (S.read_tuple d) [| vi 7; vf 1.5; vs "y" |]);
  Alcotest.(check bool) "consumed everything" true (S.at_end d)

let snapshot_int_roundtrip =
  QCheck2.Test.make ~name:"snapshot varint roundtrip (qcheck)" ~count:500
    QCheck2.Gen.int
    (fun v ->
      let b = Snapshot.encoder () in
      Snapshot.int b v;
      Snapshot.read_int (Snapshot.decoder (Snapshot.contents b)) = v)

let test_snapshot_truncation_detected () =
  let b = Snapshot.encoder () in
  Snapshot.str b "a long enough payload";
  let data = Snapshot.contents b in
  let cut = String.sub data 0 (String.length data - 3) in
  (match Snapshot.read_str (Snapshot.decoder cut) with
   | _ -> Alcotest.fail "expected Corrupt on truncated input"
   | exception Snapshot.Corrupt _ -> ())

(* ---------------- CRC-32 ---------------- *)

(* The textbook bytewise CRC-32 the slicing-by-8 version must equal. *)
let crc32_bytewise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let test_crc32_matches_bytewise () =
  Alcotest.(check int) "standard check value" 0xCBF43926
    (Snapshot.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Snapshot.crc32 "");
  let base = String.init (64 + 8) (fun i -> Char.chr ((i * 151 + 7) land 0xff)) in
  for align = 0 to 7 do
    for len = 0 to 64 do
      let s = String.sub base align len in
      if Snapshot.crc32 s <> crc32_bytewise s then
        Alcotest.failf "crc32 differs at alignment %d, length %d" align len
    done
  done

let crc32_random =
  QCheck2.Test.make ~name:"crc32 = bytewise reference (qcheck)" ~count:300
    QCheck2.Gen.(string_size (int_bound 300))
    (fun s -> Snapshot.crc32 s = crc32_bytewise s)

(* ---------------- container files ---------------- *)

let test_container_roundtrip () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "x.adpckpt" in
  let segments = [ "alpha", "payload-one"; "beta", String.make 1000 'z' ] in
  let bytes =
    Snapshot.write_file ~path ~version:1
      (List.map (fun (name, p) -> (name, fun b -> Snapshot.raw b p)) segments)
  in
  Alcotest.(check int) "write_file returns the file size"
    (In_channel.with_open_bin path In_channel.length |> Int64.to_int)
    bytes;
  (match Snapshot.read_file ~version:1 ~path with
   | Ok got ->
     Alcotest.(check bool) "segments roundtrip" true
       (List.map (fun (name, d) -> (name, Snapshot.read_rest d)) got
        = segments)
   | Error e ->
     Alcotest.failf "read failed: %a" Snapshot.pp_file_error e);
  rm_rf dir

(* Payloads larger than the writer's 64 KiB buffer, each holding a run of
   varints and strings; the first also holds one string longer than the
   buffer, which the writer sends to the file directly. *)
let container_large_roundtrip =
  let open QCheck2.Gen in
  let payload =
    pair (list_size (int_bound 20_000) int)
      (list_size (int_bound 5) (string_size (int_bound 3_000)))
  in
  QCheck2.Test.make ~name:"container roundtrip past the buffer (qcheck)"
    ~count:20
    (triple (int_range 65_537 140_000) char (list_size (int_range 1 3) payload))
    (fun (big_len, fill, payloads) ->
      let dir = fresh_dir () in
      Sys.mkdir dir 0o755;
      let path = Filename.concat dir "x.adpckpt" in
      let big = String.make big_len fill in
      let payloads =
        match payloads with
        | (ints, strs) :: rest -> (ints, big :: strs) :: rest
        | [] -> [ ([], [ big ]) ]
      in
      let encode (ints, strs) b =
        Snapshot.list Snapshot.int b ints;
        Snapshot.list Snapshot.str b strs
      in
      let bytes =
        Snapshot.write_file ~path ~version:7
          (List.mapi (fun i p -> (Printf.sprintf "s%d" i, encode p)) payloads)
      in
      let size =
        In_channel.with_open_bin path In_channel.length |> Int64.to_int
      in
      let ok =
        match Snapshot.read_file ~version:7 ~path with
        | Error e -> QCheck2.Test.fail_reportf "%a" Snapshot.pp_file_error e
        | Ok segs ->
          List.map fst segs
          = List.mapi (fun i _ -> Printf.sprintf "s%d" i) payloads
          && List.for_all2
               (fun (_, d) (ints, strs) ->
                 let got_ints = Snapshot.read_list Snapshot.read_int d in
                 let got_strs = Snapshot.read_list Snapshot.read_str d in
                 got_ints = ints && got_strs = strs && Snapshot.at_end d)
               segs payloads
      in
      rm_rf dir;
      ok && bytes = size)

(* The writer streams through its fixed buffer: an 11 MB payload must not
   grow any buffer to its size on the major heap. *)
let test_write_memory_is_buffer_sized () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "big.adpckpt" in
  let big = String.make 100_000 'q' in
  let gc = Adp_obs.Wallclock.create () in
  let bytes =
    Snapshot.write_file ~path ~version:1
      [ ( "big",
          fun b ->
            for i = 1 to 1_000_000 do
              Snapshot.f64 b (float_of_int i)
            done;
            Snapshot.str b big;
            for i = 1 to 1_000_000 do
              Snapshot.int b i
            done ) ]
  in
  let major_bytes =
    (Adp_obs.Wallclock.gc_totals gc).Adp_obs.Wallclock.g_major_words
    *. float_of_int (Sys.word_size / 8)
  in
  Alcotest.(check bool) "payload of at least 8 MB" true (bytes >= 8_000_000);
  if major_bytes >= 1e6 then
    Alcotest.failf "writing %d bytes allocated %.0f bytes on the major heap"
      bytes major_bytes;
  (match Snapshot.read_file ~version:1 ~path with
   | Ok [ ("big", d) ] ->
     Alcotest.(check (float 0.0)) "first value" 1.0 (Snapshot.read_f64 d)
   | Ok _ -> Alcotest.fail "wrong segments"
   | Error e -> Alcotest.failf "read failed: %a" Snapshot.pp_file_error e);
  rm_rf dir

let flip_byte path ~offset_from_end =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let data = Bytes.of_string data in
  let i = Bytes.length data - offset_from_end in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let test_container_corruption_detected () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "x.adpckpt" in
  ignore
    (Snapshot.write_file ~path ~version:1
       [ ("alpha", fun b -> Snapshot.raw b "payload-one");
         ("beta", fun b -> Snapshot.raw b (String.make 200 'z')) ]);
  flip_byte path ~offset_from_end:5;
  (match Snapshot.read_file ~version:1 ~path with
   | Error (Snapshot.Crc_mismatch "beta") -> ()
   | Error e ->
     Alcotest.failf "wrong error: %a" Snapshot.pp_file_error e
   | Ok _ -> Alcotest.fail "corruption not detected");
  let garbage = Filename.concat dir "g.adpckpt" in
  let oc = open_out_bin garbage in
  output_string oc "not a checkpoint at all";
  close_out oc;
  (match Snapshot.read_file ~version:1 ~path:garbage with
   | Error Snapshot.Bad_magic -> ()
   | _ -> Alcotest.fail "bad magic not detected");
  rm_rf dir

(* ---------------- plan state capture/restore ---------------- *)

let tables =
  [ "r", Schema.make [ "r.k"; "r.p" ]; "s", Schema.make [ "s.k"; "s.p" ];
    "t", Schema.make [ "t.k"; "t.p" ] ]

let schema_of name = List.assoc name tables

let push_all plan src tuples =
  List.concat_map (fun t -> Plan.push plan ~source:src t) tuples

let mk_tuples n salt = List.init n (fun i -> [| vi (i mod 7); vi (i + salt) |])

let test_plan_capture_restore () =
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let l = mk_tuples 40 0 and r = mk_tuples 35 100 in
  let split = 20 in
  let l1 = List.filteri (fun i _ -> i < split) l
  and l2 = List.filteri (fun i _ -> i >= split) l in
  (* Reference: one uninterrupted plan. *)
  let ctx = Ctx.create () in
  let p0 = instantiate ~record_outputs:true ctx spec ~schema_of in
  let all = push_all p0 "r" l @ push_all p0 "s" r in
  (* Capture mid-stream, restore into a fresh plan, continue there. *)
  let pa = instantiate ~record_outputs:true ctx spec ~schema_of in
  let first = push_all pa "r" l1 @ push_all pa "s" r in
  let state = Plan.capture pa in
  let pb =
    instantiate ~record_outputs:true (Ctx.create ()) spec ~schema_of
  in
  Plan.restore pb state;
  let second = push_all pb "r" l2 in
  check_bag "capture/restore = uninterrupted" all (first @ second);
  let _, recorded = Plan.root_results pb in
  check_bag "root_results records everything" all
    (Row_log.view_to_list recorded);
  (* Restoring a mismatched shape is rejected. *)
  let other = instantiate (Ctx.create ()) (Plan.scan "r") ~schema_of in
  (match Plan.restore other state with
   | _ -> Alcotest.fail "shape mismatch accepted"
   | exception Invalid_argument _ -> ())

(* Capture a plan after [split] interleaved pushes, round-trip the state
   through the codec and restore it into a fresh plan: every later push,
   and the final flush, must return the same list (not only the same bag)
   as the uninterrupted plan — restored tables keep their bucket chains. *)
let check_continuation spec ~split =
  let rng = Random.State.make [| 17 |] in
  let sources = Array.of_list (Plan.relations spec) in
  let events =
    List.init 240 (fun _ ->
        let src = sources.(Random.State.int rng (Array.length sources)) in
        (src, [| vi (Random.State.int rng 5); vi (Random.State.int rng 4) |]))
  in
  let run plan evs =
    List.map (fun (src, t) -> Plan.push plan ~source:src t) evs
  in
  let before = List.filteri (fun i _ -> i < split) events
  and after = List.filteri (fun i _ -> i >= split) events in
  let p0 = instantiate (Ctx.create ()) spec ~schema_of in
  ignore (run p0 before);
  let b = Snapshot.encoder () in
  Codec.plan_state b (Plan.capture p0);
  let state = Codec.read_plan_state (Snapshot.decoder (Snapshot.contents b)) in
  let want = run p0 after in
  let want_flush = Plan.flush p0 in
  let p1 = instantiate (Ctx.create ()) spec ~schema_of in
  Plan.restore p1 state;
  let got = run p1 after in
  let same = List.equal Tuple.equal in
  Alcotest.(check bool) "some continuation pushes emit" true
    (List.exists (fun l -> l <> []) want);
  Alcotest.(check bool) "continuation pushes, list for list" true
    (List.equal same want got);
  Alcotest.(check bool) "final flush, list for list" true
    (same want_flush (Plan.flush p1))

let test_continuation_three_way () =
  let spec =
    Plan.join
      (Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ])
      (Plan.scan ~filter:(Predicate.lt "t.p" (vi 3)) "t")
      ~on:[ "s.p", "t.k" ]
  in
  check_continuation spec ~split:100;
  check_continuation spec ~split:181

let test_continuation_preagg_under_join () =
  let spec =
    Plan.join
      (Plan.preagg
         ~mode:(Plan.Windowed { initial = 4; max_window = 16 })
         ~group_cols:[ "r.k" ]
         ~aggs:[ Aggregate.count_all ~name:"n" ]
         (Plan.scan "r"))
      (Plan.scan "s") ~on:[ "r.k", "s.k" ]
  in
  check_continuation spec ~split:101;
  check_continuation spec ~split:150

let test_capture_requires_recorded_outputs () =
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let plan =
    instantiate ~record_outputs:false (Ctx.create ()) spec ~schema_of
  in
  ignore (push_all plan "r" (mk_tuples 5 0));
  match Plan.capture plan with
  | _ -> Alcotest.fail "captured a plan that does not record its outputs"
  | exception Invalid_argument _ -> ()

let test_plan_state_codec_roundtrip () =
  let spec =
    Plan.join
      (Plan.scan ~filter:(Predicate.lt "r.k" (vi 6)) "r")
      (Plan.scan "s")
      ~on:[ "r.k", "s.k" ]
  in
  let ctx = Ctx.create () in
  let plan = instantiate ~record_outputs:true ctx spec ~schema_of in
  ignore (push_all plan "r" (mk_tuples 25 0));
  ignore (push_all plan "s" (mk_tuples 30 50));
  let state = Plan.capture plan in
  let b = Snapshot.encoder () in
  Codec.spec b spec;
  Codec.plan_state b state;
  let d = Snapshot.decoder (Snapshot.contents b) in
  Alcotest.(check bool) "spec roundtrip" true (Codec.read_spec d = spec);
  Alcotest.(check bool) "plan state roundtrip" true
    (equal_state (Codec.read_plan_state d) state);
  Alcotest.(check bool) "consumed everything" true (Snapshot.at_end d)

let test_clock_capture_restore () =
  let c = Clock.create () in
  Clock.charge c 3.0;
  Clock.wait_until c 10.0;
  Clock.wait_retry c 2.5;
  let st = Clock.capture c in
  let c2 = Clock.create () in
  Clock.restore c2 st;
  Alcotest.(check (float 1e-9)) "now" (Clock.now c) (Clock.now c2);
  Alcotest.(check (float 1e-9)) "cpu" (Clock.cpu c) (Clock.cpu c2);
  Alcotest.(check (float 1e-9)) "idle" (Clock.idle c) (Clock.idle c2);
  Alcotest.(check (float 1e-9)) "retry idle" (Clock.retry_idle c)
    (Clock.retry_idle c2)

let test_selectivity_dump_roundtrip () =
  let s = Adp_stats.Selectivity.create () in
  Adp_stats.Selectivity.observe s ~signature:"r⋈s" ~output:30.0
    ~input_product:100.0;
  Adp_stats.Selectivity.observe_output s ~signature:"r⋈s" ~cardinality:42.0;
  Adp_stats.Selectivity.observe_cardinality s ~relation:"r" ~seen:17;
  Adp_stats.Selectivity.observe_final_cardinality s ~relation:"s" ~total:99;
  Adp_stats.Selectivity.flag_multiplicative s ~predicate:"r.k=s.k"
    ~factor:2.5;
  let dump = Adp_stats.Selectivity.dump s in
  let b = Snapshot.encoder () in
  Codec.stats_dump b dump;
  let got = Codec.read_stats_dump (Snapshot.decoder (Snapshot.contents b)) in
  Alcotest.(check bool) "dump codec roundtrip" true (got = dump);
  let s2 = Adp_stats.Selectivity.load dump in
  Alcotest.(check bool) "load preserves dump" true
    (Adp_stats.Selectivity.dump s2 = dump);
  Alcotest.(check (option (float 1e-9))) "lookup survives" (Some 0.3)
    (Adp_stats.Selectivity.lookup s2 "r⋈s")

(* ---------------- checkpoint files ---------------- *)

let mini_checkpoint () =
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let ctx = Ctx.create () in
  let plan = instantiate ~record_outputs:true ctx spec ~schema_of in
  ignore (push_all plan "r" (mk_tuples 10 0));
  let pr =
    { Checkpoint.pr_id = 0; pr_spec = spec; pr_state = Plan.capture plan;
      pr_emitted = 3; pr_read = 10; pr_ends = [ "r", 10; "s", 0 ] }
  in
  { Checkpoint.seq = 3; fingerprint = "fp"; clock = Clock.capture ctx.Ctx.clock;
    tuples_read = 10; retries = 1; failovers = 0;
    sources_failed = 0; positions = [ "r", 10; "s", 0 ];
    stats = Adp_stats.Selectivity.dump (Adp_stats.Selectivity.create ());
    completed = []; current = Some pr }

let test_checkpoint_save_load () =
  let dir = fresh_dir () in
  let ck = mini_checkpoint () in
  let path, bytes = Checkpoint.save ~dir ck in
  Alcotest.(check int) "save returns the file size"
    (In_channel.with_open_bin path In_channel.length |> Int64.to_int)
    bytes;
  Alcotest.(check (option string)) "latest finds it" (Some path)
    (Checkpoint.latest ~dir);
  ignore (Checkpoint.save ~dir { ck with Checkpoint.seq = 4 });
  Alcotest.(check bool) "latest prefers higher seq" true
    (Checkpoint.latest ~dir <> Some path);
  (match Checkpoint.load path with
   | Ok got ->
     Alcotest.(check int) "seq" 3 got.Checkpoint.seq;
     Alcotest.(check string) "fingerprint" "fp" got.Checkpoint.fingerprint;
     Alcotest.(check bool) "positions" true
       (got.Checkpoint.positions = ck.Checkpoint.positions);
     Alcotest.(check bool) "phase restored" true
       (match got.Checkpoint.current with
        | Some pr ->
          pr.Checkpoint.pr_read = 10
          && equal_state pr.Checkpoint.pr_state
               (Option.get ck.Checkpoint.current).Checkpoint.pr_state
        | None -> false);
     Alcotest.(check bool) "ledger" true
       (Checkpoint.ledger got = [ 0, [ "r", 10; "s", 0 ] ])
   | Error ds -> Alcotest.failf "load failed: %s" (Diagnostic.to_string ds));
  rm_rf dir

(* [Plan.capture] shares the plan's live output logs, so pushes after
   the capture must reach neither the captured state nor the file saved
   from it after those pushes. *)
let test_capture_is_snapshot () =
  let spec = Plan.join (Plan.scan "r") (Plan.scan "s") ~on:[ "r.k", "s.k" ] in
  let plan = instantiate ~record_outputs:true (Ctx.create ()) spec ~schema_of in
  ignore (push_all plan "r" (mk_tuples 12 0));
  ignore (push_all plan "s" (mk_tuples 9 50));
  let state = Plan.capture plan in
  let b = Snapshot.encoder () in
  Codec.plan_state b state;
  let at_capture =
    Codec.read_plan_state (Snapshot.decoder (Snapshot.contents b))
  in
  let rows_at_capture = Row_log.view_to_list (snd (Plan.root_results plan)) in
  let later = push_all plan "r" (mk_tuples 10 200) in
  Alcotest.(check bool) "later pushes emit" true (later <> []);
  Alcotest.(check bool) "captured state unchanged in memory" true
    (equal_state state at_capture);
  let dir = fresh_dir () in
  let ck = mini_checkpoint () in
  let pr = Option.get ck.Checkpoint.current in
  let path, _ =
    Checkpoint.save ~dir
      { ck with
        Checkpoint.current = Some { pr with Checkpoint.pr_state = state } }
  in
  (match Checkpoint.load path with
   | Ok { Checkpoint.current = Some loaded; _ } ->
     Alcotest.(check bool) "saved state = state at capture" true
       (equal_state loaded.Checkpoint.pr_state at_capture);
     let restored =
       instantiate ~record_outputs:true (Ctx.create ()) spec ~schema_of
     in
     Plan.restore restored loaded.Checkpoint.pr_state;
     let rows = Row_log.view_to_list (snd (Plan.root_results restored)) in
     Alcotest.(check bool) "restored rows = rows at capture" true
       (List.equal Tuple.equal rows rows_at_capture);
     Alcotest.(check bool) "restored plan replays the later pushes" true
       (List.equal Tuple.equal later
          (push_all restored "r" (mk_tuples 10 200)))
   | Ok _ -> Alcotest.fail "no current phase loaded"
   | Error ds -> Alcotest.failf "load failed: %s" (Diagnostic.to_string ds));
  rm_rf dir

let test_corrupt_checkpoint_rejected () =
  let dir = fresh_dir () in
  let path, _ = Checkpoint.save ~dir (mini_checkpoint ()) in
  flip_byte path ~offset_from_end:12;
  (match Checkpoint.load path with
   | Error ds ->
     Alcotest.(check bool) "crc diagnostic" true
       (List.mem "ckpt-crc-mismatch" (Diagnostic.codes ds));
     Alcotest.(check bool) "is an error" true (Diagnostic.has_errors ds)
   | Ok _ -> Alcotest.fail "corrupt checkpoint accepted");
  (* A torn write: the file ends mid-segment. *)
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  (match Checkpoint.load path with
   | Error ds ->
     Alcotest.(check bool) "torn write detected" true
       (List.exists
          (fun c -> c = "ckpt-truncated" || c = "ckpt-crc-mismatch")
          (Diagnostic.codes ds))
   | Ok _ -> Alcotest.fail "torn checkpoint accepted");
  (match Checkpoint.load (Filename.concat dir "missing.adpckpt") with
   | Error ds ->
     Alcotest.(check bool) "io error surfaced" true
       (List.mem "ckpt-io-error" (Diagnostic.codes ds))
   | Ok _ -> Alcotest.fail "missing file accepted");
  rm_rf dir

(* The same segments under an older format version must be refused. *)
let old_checkpoint_rejected ~version =
  let dir = fresh_dir () in
  let path, _ = Checkpoint.save ~dir (mini_checkpoint ()) in
  (match Snapshot.read_file ~version:Checkpoint.format_version ~path with
   | Ok segs ->
     ignore
       (Snapshot.write_file ~path ~version
          (List.map
             (fun (name, d) ->
               let p = Snapshot.read_rest d in
               (name, fun b -> Snapshot.raw b p))
             segs))
   | Error e -> Alcotest.failf "read failed: %a" Snapshot.pp_file_error e);
  (match Checkpoint.load path with
   | Error ds ->
     Alcotest.(check (list string)) "version diagnostic" [ "ckpt-version" ]
       (Diagnostic.codes ds)
   | Ok _ -> Alcotest.failf "v%d checkpoint accepted" version);
  Alcotest.(check bool) "no clock from an old file" true
    (Checkpoint.load_clock path = None);
  rm_rf dir

(* Version 1 phase segments still carried every join's table contents. *)
let test_v1_checkpoint_rejected () = old_checkpoint_rejected ~version:1

(* Version 2 phase tuples are full width: every join kept every column. *)
let test_v2_checkpoint_rejected () = old_checkpoint_rejected ~version:2

(* Version 3 stored output lists oldest first, with varint CRCs and
   lengths in its segment headers. *)
let test_v3_checkpoint_rejected () = old_checkpoint_rejected ~version:3

let test_load_clock () =
  let dir = fresh_dir () in
  let ck = mini_checkpoint () in
  let path, _ = Checkpoint.save ~dir ck in
  Alcotest.(check bool) "clock read alone" true
    (Checkpoint.load_clock path = Some ck.Checkpoint.clock);
  (* A flipped byte in the last phase segment, which load_clock does not
     decode, still fails its CRC. *)
  flip_byte path ~offset_from_end:12;
  Alcotest.(check bool) "every segment verified" true
    (Checkpoint.load_clock path = None);
  Alcotest.(check bool) "missing file" true
    (Checkpoint.load_clock (Filename.concat dir "missing.adpckpt") = None);
  rm_rf dir

(* ---------------- ledger validation ---------------- *)

let test_ledger_diagnostics () =
  let check ledger sources wanted =
    let codes =
      Diagnostic.codes (Analyzer.check_checkpoint_regions ~ledger ~sources)
    in
    List.iter
      (fun c ->
        Alcotest.(check bool) ("expects " ^ c) true (List.mem c codes))
      wanted;
    if wanted = [] then
      Alcotest.(check (list string)) "clean ledger" [] codes
  in
  let sources = [ "r", 100; "s", 50 ] in
  check [] sources [ "ckpt-empty-ledger" ];
  check [ 0, [ "r", 30; "s", 10 ]; 1, [ "r", 60; "s", 50 ] ] sources [];
  check [ 0, [ "r", 30; "s", 10 ]; 1, [ "r", 20; "s", 50 ] ] sources
    [ "ckpt-region-overlap" ];
  check [ 0, [ "r", 130; "s", 10 ] ] sources [ "ckpt-source-truncated" ];
  check [ 0, [ "r", 30 ] ] sources [ "ckpt-source-unknown" ];
  check [ 0, [ "r", 30; "s", 10; "x", 5 ] ] sources [ "ckpt-source-missing" ];
  check [ 1, [ "r", 30; "s", 10 ]; 0, [ "r", 60; "s", 50 ] ] sources
    [ "ckpt-phase-order" ]

(* ---------------- crash injector ---------------- *)

let test_crash_injector_fires_once () =
  let inj = Crash.injector [ Crash.After_tuples 5 ] in
  Crash.tuple_consumed inj ~total:4;
  (match Crash.tuple_consumed inj ~total:5 with
   | _ -> Alcotest.fail "expected crash"
   | exception Crash.Crashed _ -> ());
  (* The trigger is consumed: the resumed run survives the same point. *)
  Crash.tuple_consumed inj ~total:6;
  Alcotest.(check int) "no pending points" 0 (List.length (Crash.pending inj))

let test_crash_injector_tuple_points () =
  (* Fires at exactly tuple n, the earliest due point first, and not on a
     point that already fired. *)
  let inj =
    Crash.injector
      [ Crash.At_phase_boundary 0; Crash.After_tuples 7; Crash.After_tuples 3 ]
  in
  let fired = ref [] in
  for total = 1 to 10 do
    match Crash.tuple_consumed inj ~total with
    | () -> ()
    | exception Crash.Crashed _ -> fired := total :: !fired
  done;
  Alcotest.(check (list int)) "fired at tuples 3 and 7" [ 3; 7 ]
    (List.rev !fired);
  Alcotest.(check int) "phase point still pending" 1
    (List.length (Crash.pending inj));
  (* A count that jumps past a point fires it at once. *)
  let inj = Crash.injector [ Crash.After_tuples 4 ] in
  match Crash.tuple_consumed inj ~total:9 with
  | () -> Alcotest.fail "expected crash"
  | exception Crash.Crashed _ -> ()

(* ---------------- kill-and-resume end-to-end ---------------- *)

let dataset =
  Tpch.generate { Tpch.scale = 0.002; distribution = Tpch.Uniform; seed = 11 }

let e2e_query =
  Sql_parser.parse ~schema_of:Tpch.schema_of
    "SELECT orders.o_orderkey, lineitem.l_quantity FROM orders, lineitem \
     WHERE orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderdate < \
     DATE '1995-03-15'"

(* Three relations, so a restored phase rebuilds an outer join's table
   from an inner join's outputs. *)
let e2e_query3 =
  Sql_parser.parse ~schema_of:Tpch.schema_of
    "SELECT customer.c_custkey, orders.o_orderkey, lineitem.l_quantity FROM \
     customer, orders, lineitem WHERE customer.c_custkey = orders.o_custkey \
     AND orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderdate < \
     DATE '1995-03-15'"

let run_corrective ?(query = e2e_query) ?checkpoint ?resume_from ?(crash = [])
    ?memory_budget () =
  let config =
    { Corrective.default_config with
      poll_interval = 2e4; checkpoint; resume_from; crash; memory_budget }
  in
  Corrective.run ~config query
    (Workload.catalog dataset query)
    (Workload.sources dataset query ())

let kill_and_resume ?query point () =
  let dir = fresh_dir () in
  let policy = Checkpoint.policy ~every_tuples:500 ~dir () in
  let want, _ = run_corrective ?query () in
  (match run_corrective ?query ~checkpoint:policy ~crash:[ point ] () with
   | _ -> Alcotest.failf "expected crash %a" Crash.pp_point point
   | exception Crash.Crashed _ -> ());
  Alcotest.(check bool) "a checkpoint was written" true
    (Checkpoint.latest ~dir <> None);
  let result, stats = run_corrective ?query ~resume_from:dir () in
  Alcotest.(check bool) "phases were restored" true
    (stats.Corrective.resumed_phases > 0);
  (* The recovery invariant: the resumed answer is the exact multiset of
     the uninterrupted run — no duplicated and no missing cross-phase
     combinations. *)
  check_bag "resumed result = uninterrupted (exact multiset)"
    (Relation.to_list result) (Relation.to_list want);
  (* Resuming is deterministic: a second recovery from the same
     checkpoint reproduces the same answer. *)
  let again, _ = run_corrective ?query ~resume_from:dir () in
  check_bag "resume is deterministic" (Relation.to_list again)
    (Relation.to_list result);
  rm_rf dir

let test_resume_mid_phase = kill_and_resume (Crash.After_tuples 2000)
let test_resume_at_boundary = kill_and_resume (Crash.At_phase_boundary 0)
let test_resume_during_stitchup = kill_and_resume Crash.During_stitchup

let test_resume3_mid_phase =
  kill_and_resume ~query:e2e_query3 (Crash.After_tuples 2000)

let test_resume3_at_boundary =
  kill_and_resume ~query:e2e_query3 (Crash.At_phase_boundary 0)

let test_resume3_during_stitchup =
  kill_and_resume ~query:e2e_query3 Crash.During_stitchup

let test_checkpoint_policies () =
  let dir = fresh_dir () in
  (* Boundary-only policy: an uninterrupted single-pass run writes its
     phase-close checkpoint and nothing else. *)
  let _, stats = run_corrective ~checkpoint:(Checkpoint.policy ~dir ()) () in
  Alcotest.(check bool) "boundary checkpoints written" true
    (stats.Corrective.checkpoints >= 1);
  (* Resuming from a checkpoint of a run that finished cleanly is legal:
     the residual input is empty and the answer unchanged. *)
  let want, _ = run_corrective () in
  let result, _ = run_corrective ~resume_from:dir () in
  check_bag "resume after clean finish" (Relation.to_list result)
    (Relation.to_list want);
  rm_rf dir;
  (* Page-out-triggered checkpoints: under memory pressure the engine
     snapshots state as it is forced out of memory. *)
  let dir = fresh_dir () in
  let policy = Checkpoint.policy ~on_page_out:true ~dir () in
  let _, stats =
    run_corrective ~checkpoint:policy ~memory_budget:500 ()
  in
  Alcotest.(check bool) "memory pressure paged state out" true
    (stats.Corrective.paged_out > 0);
  Alcotest.(check bool) "page-outs triggered checkpoints" true
    (stats.Corrective.checkpoints >= 1);
  rm_rf dir

let test_fingerprint_mismatch_rejected () =
  let dir = fresh_dir () in
  let policy = Checkpoint.policy ~dir () in
  let _ = run_corrective ~checkpoint:policy () in
  let other =
    Sql_parser.parse ~schema_of:Tpch.schema_of
      "SELECT orders.o_orderkey FROM orders WHERE orders.o_orderkey > 5"
  in
  let config =
    { Corrective.default_config with resume_from = Some dir }
  in
  (match
     Corrective.run ~config other
       (Workload.catalog dataset other)
       (Workload.sources dataset other ())
   with
   | _ -> Alcotest.fail "foreign checkpoint accepted"
   | exception Diagnostic.Failed (_, ds) ->
     Alcotest.(check bool) "fingerprint diagnostic" true
       (List.mem "ckpt-fingerprint-mismatch" (Diagnostic.codes ds)));
  rm_rf dir

let suite =
  [ Alcotest.test_case "snapshot scalars" `Quick test_snapshot_scalars;
    qtest snapshot_int_roundtrip;
    Alcotest.test_case "snapshot truncation" `Quick
      test_snapshot_truncation_detected;
    Alcotest.test_case "crc32 = bytewise reference" `Quick
      test_crc32_matches_bytewise;
    qtest crc32_random;
    Alcotest.test_case "container roundtrip" `Quick test_container_roundtrip;
    Alcotest.test_case "container corruption" `Quick
      test_container_corruption_detected;
    qtest container_large_roundtrip;
    Alcotest.test_case "write memory is buffer-sized" `Quick
      test_write_memory_is_buffer_sized;
    Alcotest.test_case "plan capture/restore" `Quick test_plan_capture_restore;
    Alcotest.test_case "continuation: 3-way join" `Quick
      test_continuation_three_way;
    Alcotest.test_case "continuation: preagg under join" `Quick
      test_continuation_preagg_under_join;
    Alcotest.test_case "capture needs recorded outputs" `Quick
      test_capture_requires_recorded_outputs;
    Alcotest.test_case "plan state codec" `Quick
      test_plan_state_codec_roundtrip;
    Alcotest.test_case "clock capture/restore" `Quick
      test_clock_capture_restore;
    Alcotest.test_case "selectivity dump" `Quick
      test_selectivity_dump_roundtrip;
    Alcotest.test_case "checkpoint save/load" `Quick test_checkpoint_save_load;
    Alcotest.test_case "capture is a snapshot" `Quick test_capture_is_snapshot;
    Alcotest.test_case "corrupt checkpoint rejected" `Quick
      test_corrupt_checkpoint_rejected;
    Alcotest.test_case "v1 checkpoint rejected" `Quick
      test_v1_checkpoint_rejected;
    Alcotest.test_case "v2 checkpoint rejected" `Quick
      test_v2_checkpoint_rejected;
    Alcotest.test_case "v3 checkpoint rejected" `Quick
      test_v3_checkpoint_rejected;
    Alcotest.test_case "load_clock" `Quick test_load_clock;
    Alcotest.test_case "ledger diagnostics" `Quick test_ledger_diagnostics;
    Alcotest.test_case "crash injector" `Quick test_crash_injector_fires_once;
    Alcotest.test_case "crash injector: tuple points" `Quick
      test_crash_injector_tuple_points;
    Alcotest.test_case "kill+resume: mid-phase" `Quick test_resume_mid_phase;
    Alcotest.test_case "kill+resume: phase boundary" `Quick
      test_resume_at_boundary;
    Alcotest.test_case "kill+resume: during stitch-up" `Quick
      test_resume_during_stitchup;
    Alcotest.test_case "kill+resume 3-way: mid-phase" `Quick
      test_resume3_mid_phase;
    Alcotest.test_case "kill+resume 3-way: phase boundary" `Quick
      test_resume3_at_boundary;
    Alcotest.test_case "kill+resume 3-way: during stitch-up" `Quick
      test_resume3_during_stitchup;
    Alcotest.test_case "checkpoint policies" `Quick test_checkpoint_policies;
    Alcotest.test_case "fingerprint mismatch" `Quick
      test_fingerprint_mismatch_rejected ]
