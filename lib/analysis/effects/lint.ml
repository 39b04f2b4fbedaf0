(* The lint driver: load sources, run the three passes, audit waivers,
   and render reports.

   Passes, in order:
   1. forbidden effects — wall-clock reads and unseeded randomness are
      errors at every unwaived use site, and any effect (including
      ambient environment reads) transitively reachable from an engine
      entry point is an error carrying its witness chain;
   2. hash-order sensitivity — [Hashtbl.fold]/[iter] results flowing
      into order-carrying values without a deterministic sort;
   3. perturbation purity — unguarded trace emission, observability
      reads, and emission results feeding back into engine values.

   Everything is reported through [Diagnostic] under stable [lint-*]
   codes so tests, CI and the bench baseline can match on them. *)

module Diagnostic = Adp_analysis.Diagnostic
module Json = Adp_obs.Json

let code_parse_error = "lint-parse-error"
let code_forbidden_effect = "lint-forbidden-effect"
let code_wallclock_escape = "lint-wallclock-escape"
let code_effect_reachable = "lint-effect-reachable"
let code_waiver_reason = "lint-waiver-reason"
let code_unused_waiver = "lint-unused-waiver"
let code_unsorted_fold = "lint-unsorted-hash-fold"
let code_unsorted_iter = "lint-unsorted-hash-iter"
let code_unguarded_emit = "lint-unguarded-emit"
let code_obs_read = "lint-obs-read"
let code_emit_feedback = "lint-emit-feedback"

let all_codes =
  [ code_parse_error; code_forbidden_effect; code_wallclock_escape;
    code_effect_reachable; code_waiver_reason; code_unused_waiver;
    code_unsorted_fold; code_unsorted_iter; code_unguarded_emit;
    code_obs_read; code_emit_feedback ]

(* Engine entry points: taint reaching any of these is an error even for
   effect kinds (ambient reads) that are tolerated in harness code. *)
let default_entries =
  [ ("Corrective", Some "run"); ("Server", Some "run"); ("Driver", None);
    ("Plan", None) ]

let default_paths = [ "lib"; "bin"; "bench"; "test" ]

(* ---------------- source loading ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec walk acc path =
  if Sys.file_exists path && Sys.is_directory path then
    let entries = Sys.readdir path in
    (* a deterministic linter must not depend on directory order *)
    let () = Array.sort String.compare entries in
    Array.fold_left
      (fun acc e ->
        if e = "" || e.[0] = '.' || e.[0] = '_' then acc
        else walk acc (Filename.concat path e))
      acc entries
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let ml_files paths =
  List.sort_uniq String.compare
    (List.concat_map (fun p -> walk [] p) paths)

(* Parse every .ml under [paths]; unparseable files become diagnostics,
   not crashes — the lint must degrade gracefully mid-edit. *)
let load_paths paths =
  List.fold_left
    (fun (units, diags) file ->
      match Src_unit.parse ~path:file (read_file file) with
      | Ok u -> (u :: units, diags)
      | Error (line, msg) ->
        ( units,
          Diagnostic.errorf ~code:code_parse_error ~path:file
            "line %d: could not parse: %s" line msg
          :: diags ))
    ([], []) (ml_files paths)
  |> fun (units, diags) -> (List.rev units, List.rev diags)

(* ---------------- analysis ---------------- *)

let kind_hint = function
  | Effect_table.Wall_clock ->
    "the engine runs on Clock's virtual time"
  | Effect_table.Unseeded_random ->
    "seed explicitly via Random.State to keep runs replayable"
  | Effect_table.Ambient_read ->
    "engine behaviour must not depend on the ambient environment"

let analyze ?(entries = default_entries) (units : Src_unit.t list) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let g = Callgraph.build units in
  (* pass 1a: direct uses of globally forbidden effects.  Wall reads
     have a structural allowlist — the one sanctioned lib/obs/wallclock
     module — and escaping it is its own code, so the fix ("route the
     read through Wallclock") is named rather than inviting a waiver. *)
  List.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (p : Callgraph.prim_use) ->
          match p.p_kind with
          | _ when p.p_waived || p.p_sanctioned -> ()
          | Effect_table.Wall_clock ->
            add
              (Diagnostic.errorf ~code:code_wallclock_escape
                 ~path:d.d_unit.Src_unit.u_path
                 "line %d: %s via %s in %s escapes the sanctioned %s module \
                  — route it through Adp_obs.Wallclock, or waive with \
                  (* %s: reason *)"
                 p.p_line
                 (Effect_table.kind_name p.p_kind)
                 p.p_path (Callgraph.qualified d)
                 Effect_table.sanctioned_wall_suffix Src_unit.marker)
          | Effect_table.Unseeded_random ->
            add
              (Diagnostic.errorf ~code:code_forbidden_effect
                 ~path:d.d_unit.Src_unit.u_path
                 "line %d: %s via %s in %s — %s, or waive with (* %s: reason *)"
                 p.p_line
                 (Effect_table.kind_name p.p_kind)
                 p.p_path (Callgraph.qualified d) (kind_hint p.p_kind)
                 Src_unit.marker)
          | Effect_table.Ambient_read -> ())
        d.d_prims)
    g.g_defs;
  Callgraph.propagate g;
  (* pass 1b: effects reachable from engine entry points *)
  List.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (k, _) ->
          add
            (Diagnostic.errorf ~code:code_effect_reachable
               ~path:d.d_unit.Src_unit.u_path
               "entry point %s reaches %s: %s — %s"
               (Callgraph.qualified d) (Effect_table.kind_name k)
               (Callgraph.witness_chain d k) (kind_hint k)))
        d.d_taint)
    (Callgraph.entry_defs g entries);
  (* passes 2 and 3: per-file AST findings, waivable at the site *)
  List.iter
    (fun u ->
      List.iter
        (fun (f : Ast_pass.finding) ->
          match Src_unit.waiver_for u ~line:f.f_line with
          | Some w -> w.Src_unit.w_used <- true
          | None ->
            let code, msg =
              match f.f_kind with
              | Ast_pass.Unsorted_fold what ->
                ( code_unsorted_fold,
                  Printf.sprintf
                    "%s builds an order-carrying value in hash iteration \
                     order; sort the result (iteration order is a function \
                     of hashing and insertion history, not of the keys)"
                    what )
              | Ast_pass.Unsorted_iter what ->
                ( code_unsorted_iter,
                  Printf.sprintf
                    "%s accumulates into a list in hash iteration order; \
                     collect then sort deterministically" what )
              | Ast_pass.Unguarded_emit what ->
                ( code_unguarded_emit,
                  Printf.sprintf
                    "%s outside a traced guard; wrap in [if Ctx.traced ...] \
                     so bare runs stay bit-identical" what )
              | Ast_pass.Obs_read what ->
                ( code_obs_read,
                  Printf.sprintf
                    "%s read in engine code outside a traced guard; engine \
                     decisions must not depend on observability state" what )
              | Ast_pass.Emit_feedback what ->
                ( code_emit_feedback,
                  Printf.sprintf
                    "%s; trace emission is fire-and-forget and must not \
                     feed values back into the engine" what )
            in
            add
              (Diagnostic.errorf ~code ~path:u.Src_unit.u_path "line %d: %s"
                 f.f_line msg))
        (Ast_pass.run u))
    units;
  (* waiver audit — after every pass has had the chance to use them *)
  List.iter
    (fun (u : Src_unit.t) ->
      List.iter
        (fun (w : Src_unit.waiver) ->
          if w.w_used && w.w_reason = None then
            add
              (Diagnostic.errorf ~code:code_waiver_reason ~path:u.u_path
                 "line %d: waiver without a reason; write (* %s: reason *)"
                 w.w_line Src_unit.marker)
          else if not w.w_used then
            add
              (Diagnostic.warning ~code:code_unused_waiver ~path:u.u_path
                 (Printf.sprintf
                    "line %d: waiver exempts nothing; delete it or move it \
                     onto the offending line" w.w_line)))
        u.u_waivers)
    units;
  List.sort
    (fun (a : Diagnostic.t) b ->
      match String.compare a.path b.path with
      | 0 -> (
        match String.compare a.code b.code with
        | 0 -> String.compare a.message b.message
        | c -> c)
      | c -> c)
    (List.rev !diags)

(* ---------------- reports ---------------- *)

type report = { r_files : int; r_diags : Diagnostic.t list }

let run ?entries paths =
  let units, parse_diags = load_paths paths in
  { r_files = List.length units + List.length parse_diags;
    r_diags = parse_diags @ analyze ?entries units }

let error_count r = List.length (Diagnostic.errors r.r_diags)
let warning_count r = List.length r.r_diags - error_count r

let severity_name = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"

let report_json r =
  Json.Obj
    [ ("schema", Json.Num 1.);
      ("files", Json.Num (float_of_int r.r_files));
      ("errors", Json.Num (float_of_int (error_count r)));
      ("warnings", Json.Num (float_of_int (warning_count r)));
      ( "diagnostics",
        Json.List
          (List.map
             (fun (d : Diagnostic.t) ->
               Json.Obj
                 [ ("code", Json.Str d.code);
                   ("severity", Json.Str (severity_name d.severity));
                   ("path", Json.Str d.path);
                   ("message", Json.Str d.message) ])
             r.r_diags) ) ]

(* Diagnostics present in [r] but absent from a previously written JSON
   report — the regression set a baseline gate cares about. *)
let diags_not_in_baseline r baseline =
  let key (code, path, message) = code ^ "\x00" ^ path ^ "\x00" ^ message in
  let known = Hashtbl.create 16 in
  (match Json.member "diagnostics" baseline with
   | Some (Json.List ds) ->
     List.iter
       (fun d ->
         let get f = Option.bind (Json.member f d) Json.get_str in
         match (get "code", get "path", get "message") with
         | Some c, Some p, Some m -> Hashtbl.replace known (key (c, p, m)) ()
         | _ -> ())
       ds
   | _ -> ());
  List.filter
    (fun (d : Diagnostic.t) ->
      not (Hashtbl.mem known (key (d.code, d.path, d.message))))
    r.r_diags
