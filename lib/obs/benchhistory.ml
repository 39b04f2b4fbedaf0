(* Longitudinal benchmark trajectories: [tukwila bench-history] appends
   each BENCH_<id>.json document as one line of bench/history/<id>.jsonl
   and renders the per-cell trend.  Gating the newest run against the
   earlier ones is Benchdiff's job, the same comparator bench-diff uses
   with a single baseline. *)

type entry = { e_seq : int; e_doc : Bjson.doc }

let path ~dir ~bench = Filename.concat dir (bench ^ ".jsonl")

let entry_to_line e =
  let seq = ("seq", Json.Num (float_of_int e.e_seq)) in
  Json.to_string (Json.Obj (seq :: Bjson.fields e.e_doc))

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    Json.read_lines path
      (fun acc j ->
        match Bjson.of_json j with
        | Ok e_doc -> { e_seq = Json.req j "seq" Json.get_int; e_doc } :: acc
        | Error msg -> raise (Json.Bad msg))
      []
    |> Result.map List.rev

let append ~dir (doc : Bjson.doc) =
  let file = path ~dir ~bench:doc.Bjson.bench in
  match load file with
  | Error m -> Error m
  | Ok entries ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let seq =
      1 + List.fold_left (fun a e -> max a e.e_seq) 0 entries
    in
    let entries = entries @ [ { e_seq = seq; e_doc = doc } ] in
    Adp_storage.Snapshot.write_text ~path:file
      (String.concat "" (List.map (fun e -> entry_to_line e ^ "\n") entries));
    Ok seq

(* ------------------------------------------------------------------ *)
(* Trends                                                             *)
(* ------------------------------------------------------------------ *)

(* Values of cell [id] across the history, oldest first, with each
   entry's seq as the x coordinate. *)
let trajectory entries id =
  List.filter_map
    (fun e ->
      List.find_opt (fun (c : Bjson.cell) -> c.Bjson.id = id) e.e_doc.Bjson.cells
      |> Option.map (fun (c : Bjson.cell) ->
             (float_of_int e.e_seq, c.Bjson.value)))
    entries

let render ppf entries =
  match List.rev entries with
  | [] -> Format.fprintf ppf "(empty history)@."
  | last :: _ ->
    Format.fprintf ppf "== %s: %d run%s (seq %d..%d, scale %s)@."
      last.e_doc.Bjson.bench (List.length entries)
      (if List.length entries = 1 then "" else "s")
      (List.fold_left (fun a e -> min a e.e_seq) last.e_seq entries)
      last.e_seq
      (Json.float_str last.e_doc.Bjson.scale);
    let name_w =
      List.fold_left
        (fun w (c : Bjson.cell) -> max w (String.length c.Bjson.id))
        0 last.e_doc.Bjson.cells
    in
    List.iter
      (fun (c : Bjson.cell) ->
        let traj = trajectory entries c.Bjson.id in
        let vals = List.map snd traj in
        Format.fprintf ppf "  %-*s %-5s [%-16s] %s -> %s (median %s over %d)@."
          name_w c.Bjson.id
          (Bjson.kind_name c.Bjson.kind)
          (Timeseries.sparkline 16 traj)
          (Json.float_str (List.hd vals))
          (Json.float_str c.Bjson.value)
          (Json.float_str (Benchdiff.median vals))
          (List.length vals))
      last.e_doc.Bjson.cells
