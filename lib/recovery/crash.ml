type point =
  | After_tuples of int
  | At_phase_boundary of int
  | During_stitchup

exception Crashed of string

let () =
  Printexc.register_printer (function
    | Crashed m -> Some ("Crash.Crashed: " ^ m)
    | _ -> None)

let pp_point fmt = function
  | After_tuples n -> Format.fprintf fmt "after %d tuples" n
  | At_phase_boundary id -> Format.fprintf fmt "at phase-%d boundary" id
  | During_stitchup -> Format.pp_print_string fmt "during stitch-up"

(* [due]: the smallest pending [After_tuples] count, [max_int] if none. *)
type injector = { mutable points : point list; mutable due : int }

let next_due points =
  List.fold_left
    (fun acc p -> match p with After_tuples n -> min acc n | _ -> acc)
    max_int points

let injector points = { points; due = next_due points }
let pending t = t.points

let fire t p =
  t.points <- List.filter (fun q -> q <> p) t.points;
  t.due <- next_due t.points;
  raise (Crashed (Format.asprintf "injected crash %a" pp_point p))

let tuple_consumed t ~total =
  if total >= t.due then
    match
      List.find_opt
        (function After_tuples n -> total >= n | _ -> false)
        t.points
    with
    | Some p -> fire t p
    | None -> ()

let phase_closed t ~id =
  match
    List.find_opt
      (function At_phase_boundary i -> i = id | _ -> false)
      t.points
  with
  | Some p -> fire t p
  | None -> ()

let stitchup_started t =
  match List.find_opt (fun p -> p = During_stitchup) t.points with
  | Some p -> fire t p
  | None -> ()
