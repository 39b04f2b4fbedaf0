(* Effect & determinism lint over the shipped tree: wall-clock cost of
   the whole-tree analysis (printed only), and the diagnostic counts as
   exact-match cells.  The committed baseline pins errors and warnings
   at zero, so any regression that introduces a forbidden effect, an
   unsorted hash fold or an unguarded emission breaks the bench gate as
   well as CI. *)

module Lint = Adp_lint.Lint

(* The lint needs the source tree; when the bench runs from somewhere
   other than the repo root (dune sandboxes, CI), climb to it. *)
let repo_root () =
  let rec climb best dir =
    let best =
      if
        Sys.file_exists (Filename.concat dir "dune-project")
        && Sys.file_exists (Filename.concat dir "lib")
      then Some dir
      else best
    in
    let parent = Filename.dirname dir in
    if parent = dir then best else climb best parent
  in
  climb None (Sys.getcwd ())

let run () =
  print_endline "";
  print_endline "Effect & determinism lint over the shipped tree";
  match repo_root () with
  | None -> print_endline "  repo root not found; skipping"
  | Some root ->
    let paths =
      List.filter Sys.file_exists
        (List.map (Filename.concat root) Lint.default_paths)
    in
    let t0 = Adp_obs.Wallclock.cpu_now () in
    let r = Lint.run paths in
    let ms = (Adp_obs.Wallclock.cpu_now () -. t0) *. 1e3 in
    let errors = Lint.error_count r in
    let warnings = Lint.warning_count r in
    Printf.printf "files %d  errors %d  warnings %d  %.1f ms\n%!"
      r.Lint.r_files errors warnings ms;
    List.iter
      (fun d -> print_endline ("  " ^ Adp_analysis.Diagnostic.to_string [ d ]))
      r.Lint.r_diags;
    Bench_common.Bjson.emit ~bench:"lint"
      [ Bench_common.Bjson.count "tree/errors" errors;
        Bench_common.Bjson.count "tree/warnings" warnings ]
