(* The one comparator over BENCH_<id>.json documents, behind both
   [tukwila bench-diff] (a committed baseline as the only prior) and
   [tukwila bench-history --gate] (the earlier runs as priors); the
   rules are documented in benchdiff.mli.

   Values at or below [eps] (1 ns of virtual time) are treated as zero,
   two zeros compare equal, and relative error denominators are floored
   at [eps]; non-finite values (NaN/inf, e.g. from a corrupted run) are
   explicit breaches rather than silently passing every [<>] or [>]
   test.  Wall trios gate one-sided under a tolerance that widens with
   the measured noise:

     spread(d)  = (p95 - min) / max(median, floor)
     tol_eff    = max(wall_tol, 2 * max(spread_base, spread_new))
     breach    <=> median_new > max(median_base, floor) * (1 + tol_eff)

   and trios whose medians both sit under [floor] (5 ms) are noise by
   definition and stay informational. *)

type outcome = {
  o_bench : string;
  o_gated : int;  (* deterministic cells compared under a gate *)
  o_wall_gated : int;  (* wall medians gated variance-aware *)
  o_wall_info : int;  (* wall cells that stayed informational *)
  o_breaches : string list;
  o_notes : string list;
}

let eps = 1e-9
let floor_s = 5e-3

let finite v = Float.is_finite v

let trio_suffixes = [ "-wall-min"; "-wall-median"; "-wall-p95" ]

(* [Some (base, suffix)] when [id] is [base ^ suffix] for a trio suffix. *)
let trio_member id =
  List.find_map
    (fun suffix ->
      let n = String.length id and m = String.length suffix in
      if n >= m && String.sub id (n - m) m = suffix then
        Some (String.sub id 0 (n - m), suffix)
      else None)
    trio_suffixes

(* The wall trio rooted at [base], when all three cells are present. *)
let trio cells base =
  let find suffix =
    List.find_opt
      (fun (c : Bjson.cell) -> c.id = base ^ suffix && c.kind = Bjson.Wall)
      cells
  in
  match List.map find trio_suffixes with
  | [ Some mn; Some md; Some p95 ] ->
    Some (mn.Bjson.value, md.Bjson.value, p95.Bjson.value)
  | _ -> None

let spread (mn, md, p95) = (p95 -. mn) /. Float.max md floor_s

(* The upper median: the middle element, or the upper of the two middle
   ones, so the result is always a value that was actually measured. *)
let median values =
  let sorted = List.sort compare values in
  List.nth sorted (List.length sorted / 2)

(* Shape gate: both documents must carry exactly the same cell ids.  A
   missing or extra cell means the bench's schema changed — a different
   program, not a regression — reported with the sorted offender lists. *)
let shape_mismatch (baseline : Bjson.doc) (current : Bjson.doc) =
  let ids (d : Bjson.doc) = List.map (fun (c : Bjson.cell) -> c.id) d.cells in
  let bids = ids baseline and nids = ids current in
  let absent from l =
    List.sort compare (List.filter (fun id -> not (List.mem id from)) l)
  in
  let part label = function
    | [] -> []
    | l ->
      [ Printf.sprintf "%s %d cell%s: %s" label (List.length l)
          (if List.length l = 1 then "" else "s")
          (String.concat ", " l) ]
  in
  match
    part "missing" (absent nids bids) @ part "extra" (absent bids nids)
  with
  | [] -> None
  | parts -> Some (String.concat "; " ("cell shape mismatch" :: parts))

let diff ?(time_tol = 0.10) ?(wall_tol = 0.5) ~(priors : Bjson.doc list)
    ~(current : Bjson.doc) () =
  let baseline =
    match List.rev priors with
    | latest :: _ -> latest
    | [] -> invalid_arg "Benchdiff.diff: no prior document"
  in
  (* Values of time cell [id] across the priors that carry it, from
     runs of the same bench at the current scale only: virtual time
     grows with the scale factor, so an older run at another scale
     would skew the median long after the latest prior matches. *)
  let prior_times id =
    List.filter_map
      (fun (d : Bjson.doc) ->
        if d.bench <> current.bench || d.scale <> current.scale then None
        else
          List.find_map
            (fun (c : Bjson.cell) ->
              if c.id = id && c.kind = Bjson.Time then Some c.value else None)
            d.Bjson.cells)
      priors
  in
  if baseline.bench <> current.bench then
    Error
      (Printf.sprintf "bench id mismatch: %S vs %S" baseline.bench
         current.bench)
  else if baseline.scale <> current.scale then
    Error
      (Printf.sprintf
         "scale factor mismatch (%g vs %g): results are not comparable"
         baseline.scale current.scale)
  else
    match shape_mismatch baseline current with
    | Some m -> Error m
    | None ->
    let breaches = ref [] and notes = ref [] in
    let gated = ref 0 and wall_gated = ref 0 and wall_info = ref 0 in
    let breach fmt = Printf.ksprintf (fun s -> breaches := s :: !breaches) fmt in
    let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
    let lookup id =
      List.find (fun (c : Bjson.cell) -> c.id = id) current.cells
    in
    (* A trio gates once, through its median cell, when both documents
       carry all three cells; its min/p95 cells are accounted for there. *)
    let gate_trio id base =
      let b = Option.get (trio baseline.cells base)
      and n = Option.get (trio current.cells base) in
      let (bmn, bmd, bp95), (nmn, nmd, np95) = (b, n) in
      if not (List.for_all finite [ bmn; bmd; bp95; nmn; nmd; np95 ]) then
        breach "BREACH %-10s %s: non-finite value in repetition trio" "wall" id
      else if bmd < floor_s && nmd < floor_s then begin
        incr wall_info;
        note "note: wall trio %s under the %.0f ms noise floor (informational)"
          base (floor_s *. 1e3)
      end
      else begin
        incr wall_gated;
        let tol_eff =
          Float.max wall_tol (2.0 *. Float.max (spread b) (spread n))
        in
        if nmd > Float.max bmd floor_s *. (1.0 +. tol_eff) then
          breach
            "BREACH %-10s %s: median %s -> %s s (%+.0f%%, effective \
             tolerance %.0f%%)"
            "wall" id (Json.float_str bmd) (Json.float_str nmd)
            (100.0 *. ((nmd /. Float.max bmd eps) -. 1.0))
            (100.0 *. tol_eff)
      end
    in
    List.iter
      (fun (b : Bjson.cell) ->
        let kind = Bjson.kind_name b.kind in
        let n = lookup b.id in
        let bv = b.value and nv = n.value in
        match b.kind with
        | _ when n.kind <> b.kind ->
          breach "BREACH %-10s %s: kind changed to %s" kind b.id
            (Bjson.kind_name n.kind)
        | Bjson.Wall -> (
          match trio_member b.id with
          | Some (base, suffix)
            when trio baseline.cells base <> None
                 && trio current.cells base <> None ->
            if suffix = "-wall-median" then gate_trio b.id base
          | _ ->
            incr wall_info;
            if not (finite nv) then
              note "note: wall cell %s is non-finite (%s)" b.id
                (Json.float_str nv))
        | Bjson.Time ->
          incr gated;
          (* With one prior the median is [bv] itself. *)
          let m = median (prior_times b.id) in
          if not (finite bv && finite m && finite nv) then
            breach "BREACH %-10s %s: non-finite value (%s -> %s)" kind b.id
              (Json.float_str m) (Json.float_str nv)
          else if Float.abs m > eps || Float.abs nv > eps then begin
            let rel = Float.abs (nv -. m) /. Float.max (Float.abs m) eps in
            if rel > time_tol then
              breach "BREACH %-10s %s: %s -> %s (%+.1f%%, tolerance %.0f%%)"
                kind b.id (Json.float_str m) (Json.float_str nv)
                (100.0 *. rel) (100.0 *. time_tol)
          end
        | Bjson.Count | Bjson.Bool ->
          (* count and bool are deterministic under the virtual clock:
             any drift is a behavior change, not noise. *)
          incr gated;
          if not (finite bv && finite nv) then
            breach "BREACH %-10s %s: non-finite value (%s -> %s)" kind b.id
              (Json.float_str bv) (Json.float_str nv)
          else if nv <> bv then
            breach "BREACH %-10s %s: %s -> %s (must match exactly)" kind b.id
              (Json.float_str bv) (Json.float_str nv))
      baseline.cells;
    Ok
      { o_bench = baseline.bench; o_gated = !gated;
        o_wall_gated = !wall_gated; o_wall_info = !wall_info;
        o_breaches = List.rev !breaches; o_notes = List.rev !notes }
