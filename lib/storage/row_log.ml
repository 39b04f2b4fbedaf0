open Adp_relation

(* A row id is its chunk index shifted left by [bits], or'ed with its
   offset; no chunk holds more than [cap] rows. *)
let bits = 12
let cap = 1 lsl bits
let mask = cap - 1

type t = {
  first : int;
  mutable chunks : Tuple.t array array;  (* the first [n] slots are used *)
  mutable links : int array array;  (* [||] for a chunk with no link set *)
  mutable n : int;
  mutable last : Tuple.t array;  (* [chunks.(n - 1)], or empty *)
  mutable fill : int;  (* rows in [last] *)
  mutable length : int;
}

let create ?(first = 16) () =
  { first = max 1 (min cap first); chunks = [||]; links = [||]; n = 0;
    last = [||]; fill = 0; length = 0 }

let length t = t.length

(* The directory is copied when it grows, never a chunk, so a view that
   holds the old directory still reaches every row it counts. *)
let grow dir size =
  let d = Array.make size [||] in
  Array.blit dir 0 d 0 (Array.length dir);
  d

let open_chunk t =
  let size = if t.n = 0 then t.first else min cap (2 * Array.length t.last) in
  if t.n = Array.length t.chunks then
    t.chunks <- grow t.chunks (max 4 (2 * t.n));
  let c = Array.make size [||] in
  t.chunks.(t.n) <- c;
  t.last <- c;
  t.n <- t.n + 1;
  t.fill <- 0

let push t row =
  if t.fill = Array.length t.last then open_chunk t;
  let o = t.fill in
  t.last.(o) <- row;
  t.fill <- o + 1;
  t.length <- t.length + 1;
  ((t.n - 1) lsl bits) lor o

let succ t id =
  if (id land mask) + 1 < Array.length t.chunks.(id lsr bits) then id + 1
  else ((id lsr bits) + 1) lsl bits

let set_link t id link =
  let c = id lsr bits in
  if c >= Array.length t.links then
    t.links <- grow t.links (Array.length t.chunks);
  if t.links.(c) == [||] then
    t.links.(c) <- Array.make (Array.length t.chunks.(c)) (-1);
  t.links.(c).(id land mask) <- link

let get t id = t.chunks.(id lsr bits).(id land mask)
let link t id = t.links.(id lsr bits).(id land mask)

type view = { v_chunks : Tuple.t array array; v_length : int }

let view t = { v_chunks = t.chunks; v_length = t.length }
let view_length v = v.v_length

let view_iter f v =
  let rem = ref v.v_length and c = ref 0 in
  while !rem > 0 do
    let chunk = v.v_chunks.(!c) in
    let k = min !rem (Array.length chunk) in
    for i = 0 to k - 1 do
      f chunk.(i)
    done;
    rem := !rem - k;
    incr c
  done

let view_rev_iter f v =
  if v.v_length > 0 then begin
    (* Find the last chunk in use and how many of its rows count. *)
    let rem = ref v.v_length and c = ref 0 in
    while !rem > Array.length v.v_chunks.(!c) do
      rem := !rem - Array.length v.v_chunks.(!c);
      incr c
    done;
    for ci = !c downto 0 do
      let chunk = v.v_chunks.(ci) in
      let k = if ci = !c then !rem else Array.length chunk in
      for i = k - 1 downto 0 do
        f chunk.(i)
      done
    done
  end

let view_to_list v =
  let acc = ref [] in
  view_rev_iter (fun r -> acc := r :: !acc) v;
  !acc

let of_view v =
  let t = create ~first:v.v_length () in
  view_iter (fun r -> ignore (push t r : int)) v;
  t

let view_of_list rows =
  let t = create ~first:(List.length rows) () in
  List.iter (fun r -> ignore (push t r : int)) rows;
  view t
