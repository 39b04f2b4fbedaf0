open Adp_relation

(* A chained table specialised for join state.  Each entry stores its
   key's hash, so growth relinks entries without re-hashing and a lookup
   compares keys only when the stored hash matches.  The rows live once,
   in the table's insertion-ordered log; an entry holds the id of its
   key's newest row, and the log's link beside each row chains it to the
   previous row with the same key.  An insert only appends to the log:
   the rows join the index, oldest first, when a read next needs it
   ([sync]).  The layout is the stdlib [Hashtbl.Make]'s over the same
   hash (see the .mli), so iteration order is too. *)

type 'k bucket =
  | Empty
  | Cons of {
      hash : int;
      key : 'k;
      mutable head : int;  (* newest row id *)
      mutable next : 'k bucket;
    }

type 'k chains = {
  mutable data : 'k bucket array;
  mutable keys : int;
  initial : int;
}

type table =
  | Single of Value.t chains
  | Multi of Value.t array chains

type t = {
  key_idx : int array;
  table : table;
  first : int;  (* the log's first chunk, kept across [clear] *)
  mutable log : Row_log.t;
  mutable linked : int;  (* the log's first [linked] rows are indexed *)
  mutable unlinked : int;  (* the id of row [linked] *)
  mutable swapped : bool;
}

(* One-column keys hash exactly as [Tuple.hash_key [| v |]]. *)
let hash_value v = (17 * 31) + Value.hash v

let rec power_2_above x n =
  if x >= n then x
  else if x * 2 > Sys.max_array_length then x
  else power_2_above (x * 2) n

let chains n =
  let s = power_2_above 16 n in
  { data = Array.make s Empty; keys = 0; initial = s }

(* Sizes are powers of two, so this is the stdlib's
   [hash land max_int mod size]. *)
let index data hash = hash land (Array.length data - 1)

let rec find equal hash key = function
  | Empty -> Empty
  | Cons c as cell ->
    if c.hash = hash && equal c.key key then cell else find equal hash key c.next

(* Link [e] after [tail], or at the head of bucket [j] when it is empty. *)
let link data j tail e =
  (match tail with Empty -> data.(j) <- e | Cons t -> t.next <- e);
  e

(* Double the bucket array.  Old bucket [i] splits into new buckets [i]
   and [i + osize], so each chain is relinked in order behind two tails:
   the order [Hashtbl.resize] gives, without its array of tails. *)
let resize ch =
  let odata = ch.data in
  let osize = Array.length odata in
  let nsize = osize * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    for i = 0 to osize - 1 do
      let cell = ref odata.(i) and lo = ref Empty and hi = ref Empty in
      while
        match !cell with
        | Empty -> false
        | Cons c as e ->
          cell := c.next;
          c.next <- Empty;
          if c.hash land osize = 0 then lo := link ndata i !lo e
          else hi := link ndata (i + osize) !hi e;
          true
      do
        ()
      done
    done;
    ch.data <- ndata
  end

(* Link row [id] in one bucket walk; a new key goes at the bucket head. *)
let add equal ch log hash key id =
  let data = ch.data in
  let i = index data hash in
  match find equal hash key data.(i) with
  | Cons c ->
    Row_log.set_link log id c.head;
    c.head <- id
  | Empty ->
    Row_log.set_link log id (-1);
    data.(i) <- Cons { hash; key; head = id; next = data.(i) };
    ch.keys <- ch.keys + 1;
    if ch.keys > Array.length data lsl 1 then resize ch

let head equal ch hash key =
  match find equal hash key ch.data.(index ch.data hash) with
  | Cons c -> c.head
  | Empty -> -1

let has_null k = Array.exists Value.is_null k

(* [n] sizes the bucket array, [first] the log's first chunk. *)
let sized schema ~key_cols ~first n =
  let key_idx = Array.of_list (List.map (Schema.index schema) key_cols) in
  let table =
    if Array.length key_idx = 1 then Single (chains n) else Multi (chains n)
  in
  { key_idx; table; first; log = Row_log.create ~first (); linked = 0;
    unlinked = 0; swapped = false }

let create schema ~key_cols = sized schema ~key_cols ~first:16 256

let length t = Row_log.length t.log

let key_of t tuple = Tuple.key tuple t.key_idx

let insert t tuple = ignore (Row_log.push t.log tuple : int)

(* Index the rows inserted since the last read, in log order, so chains
   and resizes fall as eager insertion made them. *)
let link_pending t =
  while t.linked < Row_log.length t.log do
    let id = t.unlinked in
    let tuple = Row_log.get t.log id in
    (match t.table with
     | Single ch ->
       let v = tuple.(t.key_idx.(0)) in
       add Value.equal ch t.log (hash_value v) v id
     | Multi ch ->
       let k = key_of t tuple in
       add Tuple.equal_key ch t.log (Tuple.hash_key k) k id);
    t.linked <- t.linked + 1;
    t.unlinked <- Row_log.succ t.log id
  done

(* Every read through the index starts here; the test inlines. *)
let sync t = if t.linked < Row_log.length t.log then link_pending t

let row t id = Row_log.get t.log id
let next t id = Row_log.link t.log id

let rec count_from t n cur =
  if cur < 0 then n else count_from t (n + 1) (next t cur)

let count t cur = count_from t 0 cur

let probe_value t v =
  sync t;
  match t.table, v with
  | Single _, Value.Null | Multi _, _ -> -1
  | Single ch, _ -> head Value.equal ch (hash_value v) v

let probe t k =
  sync t;
  match t.table with
  | Single _ -> if Array.length k = 1 then probe_value t k.(0) else -1
  | Multi ch ->
    if has_null k then -1 else head Tuple.equal_key ch (Tuple.hash_key k) k

let probe_tuple t tuple cols =
  if Array.length cols = 1 then probe_value t tuple.(cols.(0))
  else probe t (Tuple.key tuple cols)

(* [probe_tuple] without the NULL rule: GROUP BY puts NULLs together. *)
let group t tuple cols =
  sync t;
  match t.table with
  | Single ch ->
    let v = tuple.(cols.(0)) in
    head Value.equal ch (hash_value v) v
  | Multi ch ->
    let k = Tuple.key tuple cols in
    head Tuple.equal_key ch (Tuple.hash_key k) k

let insert_probe t tuple ~probe =
  insert t tuple;
  probe_tuple probe tuple t.key_idx

let of_view schema ~key_cols rows =
  let n = Row_log.view_length rows in
  let t = sized schema ~key_cols ~first:n n in
  Row_log.view_iter (insert t) rows;
  t

let view t = Row_log.view t.log

(* Buckets in order; each key's rows newest first. *)
let iter_chains f log data =
  let rec rows id =
    if id >= 0 then begin
      f (Row_log.get log id);
      rows (Row_log.link log id)
    end
  in
  let rec walk = function
    | Empty -> ()
    | Cons c ->
      rows c.head;
      walk c.next
  in
  Array.iter walk data

let iter f t =
  sync t;
  match t.table with
  | Single ch -> iter_chains f t.log ch.data
  | Multi ch -> iter_chains f t.log ch.data

(* [iter]'s order reversed, as [Hashtbl.fold] gives it. *)
let to_list t =
  let acc = ref [] in
  iter (fun r -> acc := r :: !acc) t;
  !acc

let distinct_keys t =
  sync t;
  match t.table with Single ch -> ch.keys | Multi ch -> ch.keys

let swap_out t = t.swapped <- true
let swap_in t = t.swapped <- false
let swapped t = t.swapped

(* Shrink back to the initial size, as [Hashtbl.reset] does. *)
let reset ch =
  ch.keys <- 0;
  if Array.length ch.data = ch.initial then
    Array.fill ch.data 0 ch.initial Empty
  else ch.data <- Array.make ch.initial Empty

(* A fresh log rather than an emptied one, so a view taken before the
   clear still reads its rows. *)
let clear t =
  (match t.table with Single ch -> reset ch | Multi ch -> reset ch);
  t.log <- Row_log.create ~first:t.first ();
  t.linked <- 0;
  t.unlinked <- 0
