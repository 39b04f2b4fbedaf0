(* The comparator over BENCH_<id>.json documents behind
   [tukwila bench-diff]; the rules are documented in benchdiff.mli.

   Values at or below [eps] (1 ns of virtual time) are treated as zero,
   so two such values compare equal; non-finite values (NaN/inf, e.g.
   from a corrupted run) are explicit breaches rather than silently
   passing every [<>] test. *)

type outcome = {
  o_bench : string;
  o_gated : int;  (* cells compared under the gate *)
  o_breaches : string list;
}

let eps = 1e-9

let finite v = Float.is_finite v

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

let diff ~(baseline : Bjson.doc) ~(current : Bjson.doc) =
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
    let breaches = ref [] and gated = ref 0 in
    let breach fmt = Printf.ksprintf (fun s -> breaches := s :: !breaches) fmt in
    let lookup id =
      List.find (fun (c : Bjson.cell) -> c.id = id) current.cells
    in
    List.iter
      (fun (b : Bjson.cell) ->
        let kind = Bjson.kind_name b.kind in
        let n = lookup b.id in
        let bv = b.value and nv = n.value in
        if n.kind <> b.kind then
          breach "BREACH %-10s %s: kind changed to %s" kind b.id
            (Bjson.kind_name n.kind)
        else begin
          incr gated;
          if not (finite bv && finite nv) then
            breach "BREACH %-10s %s: non-finite value (%s -> %s)" kind b.id
              (Json.float_str bv) (Json.float_str nv)
          else if nv <> bv && (Float.abs bv > eps || Float.abs nv > eps) then
            breach "BREACH %-10s %s: %s -> %s (must match exactly)" kind b.id
              (Json.float_str bv) (Json.float_str nv)
        end)
      baseline.cells;
    Ok
      { o_bench = baseline.bench; o_gated = !gated;
        o_breaches = List.rev !breaches }
