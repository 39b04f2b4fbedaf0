open Adp_relation

type entry = {
  signature : string;
  phase : int;
  schema : Schema.t;
  tuples : Row_log.view;
  cardinality : int;
  complexity : int;
  mutable reused : bool;
}

type t = { table : (string * int, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let register t ~signature ~phase ~schema ~complexity tuples =
  let entry =
    { signature; phase; schema; tuples;
      cardinality = Row_log.view_length tuples; complexity; reused = false }
  in
  Hashtbl.replace t.table (signature, phase) entry

let find t ~signature ~phase = Hashtbl.find_opt t.table (signature, phase)

let phases_with t ~signature =
  Hashtbl.fold
    (fun (sg, ph) _ acc -> if sg = signature then ph :: acc else acc)
    t.table []
  |> List.sort Int.compare

let mark_reused entry = entry.reused <- true

let reused_tuples t =
  Hashtbl.fold
    (fun _ e acc ->
      if e.reused && e.complexity >= 2 then acc + e.cardinality else acc)
    t.table 0

let discarded_tuples t =
  Hashtbl.fold
    (fun _ e acc ->
      if (not e.reused) && e.complexity >= 2 then acc + e.cardinality else acc)
    t.table 0
