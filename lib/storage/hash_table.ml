open Adp_relation

module Ktbl = Tuple.Ktbl

(* One-column keys, hashed exactly as [Tuple.hash_key [| v |]] so bucket
   layout, and with it iteration order, matches the composite table. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash v = (17 * 31) + Value.hash v
end)

type table =
  | Single of Tuple.t list ref Vtbl.t
  | Multi of Tuple.t list ref Ktbl.t

type t = {
  schema : Schema.t;
  key_idx : int array;
  table : table;
  mutable size : int;
  mutable swapped : bool;
}

let sized schema ~key_cols n =
  let key_idx = Array.of_list (List.map (Schema.index schema) key_cols) in
  let table =
    if Array.length key_idx = 1 then Single (Vtbl.create n)
    else Multi (Ktbl.create n)
  in
  { schema; key_idx; table; size = 0; swapped = false }

let create schema ~key_cols = sized schema ~key_cols 256

let length t = t.size

let key_of t tuple = Tuple.key tuple t.key_idx

(* A miss appends a fresh key exactly as [Hashtbl.replace] would. *)
let add_single h v tuple =
  match Vtbl.find_opt h v with
  | Some cell -> cell := tuple :: !cell
  | None -> Vtbl.add h v (ref [ tuple ])

let add_multi h k tuple =
  match Ktbl.find_opt h k with
  | Some cell -> cell := tuple :: !cell
  | None -> Ktbl.add h k (ref [ tuple ])

let insert t tuple =
  (match t.table with
   | Single h -> add_single h tuple.(t.key_idx.(0)) tuple
   | Multi h -> add_multi h (key_of t tuple) tuple);
  t.size <- t.size + 1

let probe_value t v =
  match t.table with
  | Single h -> (match Vtbl.find_opt h v with Some cell -> !cell | None -> [])
  | Multi _ -> []

let probe t k =
  match t.table with
  | Single _ -> if Array.length k = 1 then probe_value t k.(0) else []
  | Multi h -> (match Ktbl.find_opt h k with Some cell -> !cell | None -> [])

let probe_tuple t tuple cols =
  if Array.length cols = 1 then probe_value t tuple.(cols.(0))
  else probe t (Tuple.key tuple cols)

let insert_probe t tuple ~probe:other =
  t.size <- t.size + 1;
  match t.table with
  | Single h ->
    let v = tuple.(t.key_idx.(0)) in
    add_single h v tuple;
    probe_value other v
  | Multi h ->
    let k = key_of t tuple in
    add_multi h k tuple;
    probe other k

let of_list schema ~key_cols tuples =
  let t = sized schema ~key_cols (List.length tuples) in
  List.iter (insert t) tuples;
  t

let iter f t =
  match t.table with
  | Single h -> Vtbl.iter (fun _ cell -> List.iter f !cell) h
  | Multi h -> Ktbl.iter (fun _ cell -> List.iter f !cell) h

let to_list t =
  match t.table with
  | Single h ->
    (* determinism-ok: multiset semantics — callers must not depend on order *)
    Vtbl.fold (fun _ cell acc -> List.rev_append !cell acc) h []
  | Multi h ->
    (* determinism-ok: multiset semantics — callers must not depend on order *)
    Ktbl.fold (fun _ cell acc -> List.rev_append !cell acc) h []

let distinct_keys t =
  match t.table with Single h -> Vtbl.length h | Multi h -> Ktbl.length h

let rehash t ~key_cols =
  let fresh = create t.schema ~key_cols in
  iter (insert fresh) t;
  fresh.swapped <- t.swapped;
  fresh

let swap_out t = t.swapped <- true
let swap_in t = t.swapped <- false
let swapped t = t.swapped

let clear t =
  (match t.table with Single h -> Vtbl.reset h | Multi h -> Ktbl.reset h);
  t.size <- 0
