type t = Value.t array

let arity = Array.length
let get t i = t.(i)
let concat = Array.append
let project t idxs = Array.map (fun i -> t.(i)) idxs
let key = project

let compare_key a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then Stdlib.compare la lb
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash_key k =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k

let equal_key a b = compare_key a b = 0

let compare = compare_key
let equal a b = compare a b = 0

let pp fmt t =
  Format.fprintf fmt "[%s]"
    (String.concat "; "
       (Array.to_list (Array.map Value.to_string t)))

let to_string t = Format.asprintf "%a" pp t
