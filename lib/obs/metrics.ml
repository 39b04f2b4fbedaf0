type counter = { mutable c : int }

type entry = {
  name : string;
  labels : (string * string) list;
  help : string;
  cell : counter;
}

(* The shared store behind every view of a registry.  [entries] keeps
   reversed registration order for the dumps; [index] makes registration
   O(1), where a scan would grow with the queries a server holds live
   (each query attempt's [Ctx.create] registers its counters in the one
   shared store). *)
type store = {
  mutable entries : entry list;  (* reversed registration order *)
  index : (string * (string * string) list, entry) Hashtbl.t;
}

(* A registry handle is a view: the shared store plus a label scope that
   is prepended to every registration.  Two concurrent queries asking for
   the same engine counter through differently-scoped views get two
   distinct cells instead of silently sharing (and clobbering) one. *)
type t = { store : store; scope : (string * string) list }

let create () =
  { store = { entries = []; index = Hashtbl.create 64 }; scope = [] }

let with_labels t extra = { t with scope = t.scope @ extra }

let counter t ?(help = "") name =
  match Hashtbl.find_opt t.store.index (name, t.scope) with
  | Some e -> e.cell
  | None ->
    let e = { name; labels = t.scope; help; cell = { c = 0 } } in
    t.store.entries <- e :: t.store.entries;
    Hashtbl.replace t.store.index (name, t.scope) e;
    e.cell

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

let add c n = c.c <- c.c + n
let incr c = add c 1
let count c = c.c
let set_count c n = c.c <- n

let counter_total t name =
  List.fold_left
    (fun acc e -> if e.name = name then acc + e.cell.c else acc)
    0 t.store.entries

(* Deterministic dump order: by name, then by labels. *)
let sorted t =
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    t.store.entries

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
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" first.name);
      List.iter
        (fun e ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" e.name (prom_labels e.labels) e.cell.c))
        family)
    (families (sorted t));
  Buffer.contents b
