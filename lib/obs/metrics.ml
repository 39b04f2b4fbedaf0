type counter = { mutable c : int }
type gauge = { mutable g : float }

type cell =
  | Counter of counter
  | Gauge of gauge

type entry = {
  name : string;
  labels : (string * string) list;
  help : string;
  cell : cell;
}

(* The shared store behind every view of a registry.  [entries] keeps
   reversed registration order for the dumps; [index] makes registration
   O(1) — before it, every [Plan.build] of a multi-query server rescanned
   a list that grows with (queries × nodes). *)
type store = {
  mutable entries : entry list;  (* reversed registration order *)
  index : (string * (string * string) list, entry) Hashtbl.t;
}

(* A registry handle is a view: the shared store plus a label scope that
   is prepended to every registration.  Two concurrent queries asking for
   the same per-node counter through differently-scoped views get two
   distinct cells instead of silently sharing (and clobbering) one. *)
type t = { store : store; scope : (string * string) list }

let create () =
  { store = { entries = []; index = Hashtbl.create 64 }; scope = [] }

let with_labels t extra = { t with scope = t.scope @ extra }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"

let find t name labels = Hashtbl.find_opt t.store.index (name, labels)

let register t ~labels ~help name make same =
  let labels = t.scope @ labels in
  match find t name labels with
  | Some e -> (
    match same e.cell with
    | Some h -> h
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s re-registered as a different kind (%s)"
           name (kind_name e.cell)))
  | None ->
    let h, cell = make () in
    let e = { name; labels; help; cell } in
    t.store.entries <- e :: t.store.entries;
    Hashtbl.replace t.store.index (name, labels) e;
    h

(* Retire every cell whose labels carry all of the view's scope pairs —
   how a server drops a finished (or re-run) query's cells so the store
   stays bounded however many queries pass through.  On an unscoped view
   this clears the whole registry. *)
let prune t =
  let carries e =
    List.for_all (fun kv -> List.mem kv e.labels) t.scope
  in
  let keep, drop = List.partition (fun e -> not (carries e)) t.store.entries in
  List.iter (fun e -> Hashtbl.remove t.store.index (e.name, e.labels)) drop;
  t.store.entries <- keep

let cells t = List.length t.store.entries

let counter t ?(labels = []) ?(help = "") name =
  register t ~labels ~help name
    (fun () ->
      let c = { c = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge t ?(labels = []) ?(help = "") name =
  register t ~labels ~help name
    (fun () ->
      let g = { g = 0.0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let add c n = c.c <- c.c + n
let incr c = add c 1
let count c = c.c
let set_count c n = c.c <- n
let set g v = g.g <- v

let counter_total t name =
  List.fold_left
    (fun acc e ->
      match e.cell with
      | Counter c when e.name = name -> acc + c.c
      | _ -> acc)
    0 t.store.entries

(* Deterministic dump order: by name, then by labels. *)
let sorted t =
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    t.store.entries

let to_json t =
  let labels_json labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)
  in
  let entry e =
    let value =
      match e.cell with
      | Counter c -> float_of_int c.c
      | Gauge g -> g.g
    in
    Json.Obj
      [ ("name", Json.Str e.name); ("labels", labels_json e.labels);
        ("type", Json.Str (kind_name e.cell)); ("value", Json.Num value) ]
  in
  Json.Obj [ ("metrics", Json.List (List.map entry (sorted t))) ]

(* Prometheus text exposition format. *)

let prom_escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape_label v))
           labels)
    ^ "}"

let prom_num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* Scrape-format discipline: every family gets exactly one HELP and one
   TYPE line (a synthesized HELP when none was registered), and all of a
   family's samples stay contiguous. *)
let to_prometheus t =
  let b = Buffer.create 4096 in
  let rec families = function
    | [] -> []
    | e :: rest ->
      let same, rest = List.partition (fun e' -> e'.name = e.name) rest in
      (e :: same) :: families rest
  in
  List.iter
    (fun family ->
      let first = List.hd family in
      let help =
        match List.find_opt (fun e -> e.help <> "") family with
        | Some e -> e.help
        | None -> first.name
      in
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" first.name help);
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" first.name (kind_name first.cell));
      List.iter
        (fun e ->
          let value =
            match e.cell with
            | Counter c -> string_of_int c.c
            | Gauge g -> prom_num g.g
          in
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" e.name (prom_labels e.labels) value))
        family)
    (families (sorted t));
  Buffer.contents b
