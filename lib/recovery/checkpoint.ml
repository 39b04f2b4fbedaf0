open Adp_exec
open Adp_storage
open Adp_optimizer
module Diagnostic = Adp_analysis.Diagnostic
module S = Snapshot

let format_version = 4

type phase_record = {
  pr_id : int;
  pr_spec : Plan.spec;
  pr_state : Plan.state;
  pr_emitted : int;
  pr_read : int;
  pr_ends : (string * int) list;
}

type t = {
  seq : int;
  fingerprint : string;
  clock : Clock.state;
  tuples_read : int;
  retries : int;
  failovers : int;
  sources_failed : int;
  positions : (string * int) list;
  stats : Adp_stats.Selectivity.dump;
  completed : phase_record list;
  current : phase_record option;
}

let fingerprint query = Digest.to_hex (Digest.string (Format.asprintf "%a" Logical.pp query))

let ledger t =
  let entries = List.map (fun pr -> (pr.pr_id, pr.pr_ends)) t.completed in
  match t.current with
  | None -> entries
  | Some pr -> entries @ [ (pr.pr_id, pr.pr_ends) ]

(* ---------------- segment encoding ---------------- *)

let enc_phase pr b =
  S.int b pr.pr_id;
  Codec.spec b pr.pr_spec;
  Codec.plan_state b pr.pr_state;
  S.int b pr.pr_emitted;
  S.int b pr.pr_read;
  S.list (S.pair S.str S.int) b pr.pr_ends

let dec_phase d =
  let pr_id = S.read_int d in
  let pr_spec = Codec.read_spec d in
  let pr_state = Codec.read_plan_state d in
  let pr_emitted = S.read_int d in
  let pr_read = S.read_int d in
  let pr_ends = S.read_list (S.read_pair S.read_str S.read_int) d in
  if not (S.at_end d) then raise (S.Corrupt "phase: trailing bytes");
  { pr_id; pr_spec; pr_state; pr_emitted; pr_read; pr_ends }

let enc_manifest t b =
  S.int b t.seq;
  S.str b t.fingerprint;
  S.int b t.tuples_read;
  (* A reserved slot, always 0: format 4's [tuples_output], a counter
     nothing incremented. *)
  S.int b 0;
  S.int b t.retries;
  S.int b t.failovers;
  S.int b t.sources_failed;
  S.list (S.pair S.str S.int) b t.positions;
  S.list S.int b (List.map (fun pr -> pr.pr_id) t.completed);
  S.option S.int b (Option.map (fun pr -> pr.pr_id) t.current)

let segments t =
  let phases = t.completed @ Option.to_list t.current in
  ("manifest", enc_manifest t)
  :: ("clock", fun b -> Codec.clock_state b t.clock)
  :: ("stats", fun b -> Codec.stats_dump b t.stats)
  :: List.map
       (fun pr -> (Printf.sprintf "phase-%d" pr.pr_id, enc_phase pr))
       phases

(* ---------------- files ---------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let file_name seq = Printf.sprintf "ckpt-%08d.adpckpt" seq

let save ~dir t =
  mkdir_p dir;
  let path = Filename.concat dir (file_name t.seq) in
  (path, S.write_file ~path ~version:format_version (segments t))

let latest ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else
    (* determinism-ok: listing is sorted below before any choice is made *)
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".adpckpt")
    |> List.sort compare
    |> List.rev
    |> function
    | [] -> None
    | f :: _ -> Some (Filename.concat dir f)

(* ---------------- loading ---------------- *)

let err ~path code fmt = Diagnostic.errorf ~code ~path fmt

let of_file_error ~path = function
  | S.Bad_magic ->
    err ~path "ckpt-bad-magic" "not a checkpoint file (bad magic)"
  | S.Unsupported_version v ->
    err ~path "ckpt-version" "unsupported checkpoint format version %d" v
  | S.Truncated what -> err ~path "ckpt-truncated" "truncated checkpoint: %s" what
  | S.Crc_mismatch seg ->
    err ~path "ckpt-crc-mismatch" "segment %S failed CRC verification" seg
  | S.Io_error msg -> err ~path "ckpt-io-error" "cannot read checkpoint: %s" msg

(* Read and verify [path], then decode its segments with [f]; every
   failure becomes a diagnostic. *)
let with_segments path f =
  match S.read_file ~version:format_version ~path with
  | Error e -> Error [ of_file_error ~path e ]
  | Ok segs -> (
    let segment name =
      match List.assoc_opt name segs with
      | Some d -> d
      | None ->
        raise
          (Diagnostic.Failed
             ( "checkpoint",
               [ err ~path "ckpt-segment-missing" "segment %S missing" name ] ))
    in
    try Ok (f segment) with
    | S.Corrupt msg ->
      Error [ err ~path "ckpt-malformed" "malformed checkpoint: %s" msg ]
    | Diagnostic.Failed (_, diags) -> Error diags)

(* Decode the manifest; the result assembles the checkpoint once the
   other segments are decoded. *)
let read_manifest segment =
  let d = segment "manifest" in
  let seq = S.read_int d in
  let fingerprint = S.read_str d in
  let tuples_read = S.read_int d in
  ignore (S.read_int d : int);
  let retries = S.read_int d in
  let failovers = S.read_int d in
  let sources_failed = S.read_int d in
  let positions = S.read_list (S.read_pair S.read_str S.read_int) d in
  let completed_ids = S.read_list S.read_int d in
  let current_id = S.read_option S.read_int d in
  if not (S.at_end d) then raise (S.Corrupt "manifest: trailing bytes");
  fun ~clock ~stats ~phase ->
    let completed = List.map phase completed_ids in
    let current = Option.map phase current_id in
    { seq; fingerprint; clock; tuples_read; retries;
      failovers; sources_failed; positions; stats; completed; current }

let read_clock segment = Codec.read_clock_state (segment "clock")

let load path =
  with_segments path (fun segment ->
      let assemble = read_manifest segment in
      let clock = read_clock segment in
      let stats = Codec.read_stats_dump (segment "stats") in
      assemble ~clock ~stats ~phase:(fun id ->
          dec_phase (segment (Printf.sprintf "phase-%d" id))))

let load_clock path =
  match
    with_segments path (fun segment ->
        let _assemble = read_manifest segment in
        read_clock segment)
  with
  | Ok clock -> Some clock
  | Error _ -> None

(* ---------------- policies ---------------- *)

type policy = {
  dir : string;
  every_tuples : int option;
  on_page_out : bool;
}

let policy ?every_tuples ?(on_page_out = false) ~dir () =
  { dir; every_tuples; on_page_out }
