(* The BENCH_<id>.json schema (version 1): the machine-readable
   companion every benchmark writes and [tukwila bench-diff] gates on.
   Lives in the library (rather than the bench harness) so the CLI and
   the tests parse and render through the same code.

     { "schema": 1, "bench": "<id>", "scale": <SF>,
       "cells": [ { "id": "...", "kind": "...", "value": <num> }, ... ] }

   Cell kinds and their diff semantics (see Benchdiff):
     time   deterministic virtual seconds — compared with a relative
            tolerance (plans may legitimately drift a little across
            estimator tweaks);
     count  deterministic integer/exact value — must match exactly;
     bool   invariant flag (1/0) — must match exactly.
   Wall-clock numbers are not cells: the bench tables print them, and
   perfbench judges wall time. *)

type kind = Time | Count | Bool

type cell = { id : string; kind : kind; value : float }

type doc = { bench : string; scale : float; cells : cell list }

let time id v = { id; kind = Time; value = v }
let count id n = { id; kind = Count; value = float_of_int n }
let num id v = { id; kind = Count; value = v }
let flag id b = { id; kind = Bool; value = (if b then 1.0 else 0.0) }

let kind_name = function
  | Time -> "time"
  | Count -> "count"
  | Bool -> "bool"

let kind_of_name = function
  | "time" -> Some Time
  | "count" -> Some Count
  | "bool" -> Some Bool
  | _ -> None

(* Cell ids are path-like slugs: lowercase, [a-z0-9./%+-] kept,
   everything else collapsed to '-'. *)
let slug s =
  let b = Buffer.create (String.length s) in
  let last_dash = ref false in
  String.iter
    (fun c ->
      let c = Char.lowercase_ascii c in
      match c with
      | 'a' .. 'z' | '0' .. '9' | '.' | '/' | '%' | '+' ->
        Buffer.add_char b c;
        last_dash := false
      | _ ->
        if not !last_dash then Buffer.add_char b '-';
        last_dash := true)
    (String.trim s);
  let s = Buffer.contents b in
  (* strip trailing dashes *)
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = '-' do decr n done;
  String.sub s 0 !n

let to_string { bench; scale; cells } =
  let cell_line c =
    Printf.sprintf "    { \"id\": %S, \"kind\": %S, \"value\": %s }" c.id
      (kind_name c.kind) (Json.float_str c.value)
  in
  Printf.sprintf
    "{\n  \"schema\": 1,\n  \"bench\": %S,\n  \"scale\": %s,\n  \
     \"cells\": [\n%s\n  ]\n}\n"
    bench (Json.float_str scale)
    (String.concat ",\n" (List.map cell_line cells))

let fields { bench; scale; cells } =
  [ ("schema", Json.Num 1.0); ("bench", Json.Str bench);
    ("scale", Json.Num scale);
    ( "cells",
      Json.List
        (List.map
           (fun c ->
             Json.Obj
               [ ("id", Json.Str c.id); ("kind", Json.Str (kind_name c.kind));
                 ("value", Json.Num c.value) ])
           cells) ) ]

let of_json j =
  let cell c =
    let id = Json.req c "id" Json.get_str in
    let kind = Json.req c "kind" Json.get_str in
    match kind_of_name kind with
    | Some kind -> { id; kind; value = Json.req c "value" Json.get_num }
    | None ->
      raise (Json.Bad (Printf.sprintf "cell %S: unknown kind %S" id kind))
  in
  try
    if Json.req j "schema" Json.get_int <> 1 then
      Error "unsupported schema version"
    else
      let bench = Json.req j "bench" Json.get_str in
      let scale = Json.req j "scale" Json.get_num in
      let cells = List.map cell (Json.req j "cells" Json.get_list) in
      Ok { bench; scale; cells }
  with Json.Bad msg -> Error msg

let of_string s =
  match Json.parse s with Ok j -> of_json j | Error m -> Error m

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> (
    match of_string s with
    | Ok d -> Ok d
    | Error m -> Error (path ^ ": " ^ m))
  | exception Sys_error m -> Error m
