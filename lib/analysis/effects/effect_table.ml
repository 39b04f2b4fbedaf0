(* The forbidden-effect table and the identifier classifiers shared by
   the lint passes.  Everything here works on flattened [Longident]
   paths (["Sys"; "time"]), so a mention inside a string or comment can
   never match — classification happens strictly on the AST. *)

type kind =
  | Wall_clock       (* real-time reads; the engine runs on Clock's virtual time *)
  | Unseeded_random  (* the global Random module; Random.State is sanctioned *)
  | Ambient_read     (* environment/process reads whose result the run can't control *)

let kind_name = function
  | Wall_clock -> "wall-clock read"
  | Unseeded_random -> "unseeded randomness"
  | Ambient_read -> "ambient environment read"

let strip_stdlib = function "Stdlib" :: p -> p | p -> p

(* [classify path] is the effect a *use* of [path] performs, if any.
   Wall-clock and unseeded-randomness uses are errors wherever they
   appear (the zero-perturbation contract is global); ambient reads are
   errors only when reachable from an engine entry point — a bench
   harness may read ADP_SCALE, the hot path may not. *)
let classify path =
  match strip_stdlib path with
  | [ "Sys"; "time" ]
  | [ "Unix"; ("time" | "gettimeofday" | "localtime" | "gmtime" | "times") ]
  (* GC counter reads are machine-state reads, same contract as the
     clock: real allocation totals must never steer the engine. *)
  | [ "Gc";
      ( "quick_stat" | "stat" | "counters" | "minor_words"
      | "allocated_bytes" ) ] ->
    Some Wall_clock
  | "Random" :: ("State" | "Seed") :: _ -> None
  | [ "Random"; _ ] -> Some Unseeded_random
  | [ "Sys"; ("getenv" | "getenv_opt" | "command" | "readdir") ]
  | [ "Unix";
      ("getenv" | "environment" | "getpid" | "gethostname" | "system"
      | "sleep" | "sleepf") ] ->
    Some Ambient_read
  | _ -> None

let dotted path = String.concat "." path

(* The one module allowed to read the wall clock and GC state: the
   allowlist is structural (a path suffix), not a pile of per-site
   waivers.  Suffix matching keeps it working from any checkout root
   and for the synthetic paths the lint tests use. *)
let sanctioned_wall_suffix = "obs/wallclock.ml"

let sanctioned_wall_path path =
  let n = String.length path and m = String.length sanctioned_wall_suffix in
  n >= m && String.sub path (n - m) m = sanctioned_wall_suffix

(* last two components, for suffix matching of module-qualified names *)
let tail2 path =
  match List.rev path with
  | b :: a :: _ -> [ a; b ]
  | p -> List.rev p

(* Hash-table modules whose fold/iter order is a function of hashing and
   insertion history, not of the keys: the stdlib's, the engine's own
   Hash_table, and the names local [Hashtbl.Make] instances go by
   (Histogram's Vtbl, the storage tests' Ktbl). *)
let is_hash_fold path =
  match tail2 path with
  | [ ("Hashtbl" | "Ktbl" | "Vtbl" | "Hash_table"); "fold" ] -> true
  | _ -> false

let is_hash_iter path =
  match tail2 path with
  | [ ("Hashtbl" | "Ktbl" | "Vtbl" | "Hash_table"); "iter" ] -> true
  | _ -> false

let is_sort path =
  match tail2 path with
  | [ ("List" | "Array"); ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ]
    ->
    true
  | _ -> false

(* Trace emission points: the zero-perturbation contract requires every
   one of these, in engine code, to sit under a traced guard. *)
let is_emit path =
  match tail2 path with
  | [ ("Trace" | "Ctx"); "emit" ] -> true
  | _ -> false

(* Observability *reads*: values computed by the trace/profile/
   calibration layer.  Engine decisions must never depend on them, so in
   engine code they may only appear under a traced guard (where they can
   only flow back out through the trace) or under a waiver. *)
let is_obs_read path =
  match tail2 path with
  | [ "Trace"; "events" ]
  | [ "Profile"; ("spans" | "totals") ]
  | [ "Calibrate"; ("worst" | "latest_by_node") ] ->
    true
  | _ -> false

(* Identifiers that make an [if] condition a tracing guard. *)
let is_guard_ident path =
  match List.rev path with
  | ("traced" | "enabled" | "profiled") :: _ -> true
  | [ name ] -> name = "trace_on"
  | _ -> false
