open Adp_relation
open Adp_datagen

type model =
  | Local
  | Bandwidth of float
  | Bursty of { rate : float; mean_burst : int; mean_gap : float }

type fault =
  | Stall of { after_tuples : int; duration_s : float }
  | Disconnect of { after_tuples : int; rejoin_after_s : float option }
  | Dead_on_arrival

type mirror = {
  mirror_model : model option;
  lag_tuples : int;
  mirror_faults : fault list;
}

let mirror ?model ?(lag_tuples = 0) ?(faults = []) () =
  { mirror_model = model; lag_tuples; mirror_faults = faults }

type status = Up | Down | Failed

type link = Link_up | Link_down of { rejoin_at : float option } | Link_failed

type t = {
  name : string;
  relation : Relation.t;
  mutable model : model;
  initial_model : model;
  seed : int;
  initial_faults : fault list;
  initial_mirrors : mirror list;
  mutable pos : int;
  mutable observers : (Tuple.t -> unit) list;
  (* Arrival-time generator state. *)
  mutable rng : Prng.t;
  mutable next_arrival : float;
  mutable burst_left : int;
  (* Fault-injection state.  [faults] are pending on the current
     connection; [conn_delivered] counts tuples delivered over it (the
     primary connection counts from the start of the stream, a mirror
     connection from the failover). *)
  mutable faults : fault list;
  mutable mirrors : mirror list;
  mutable link : link;
  mutable conn_delivered : int;
  mutable last_arrival : float;
  mutable failovers : int;
  mutable redelivered : int;
}

let counter = ref 0

let fresh_burst t =
  match t.model with
  | Bursty b ->
    t.burst_left <- max 1 (1 + Prng.int t.rng (2 * b.mean_burst - 1))
  | Local | Bandwidth _ -> ()

(* Fire every pending fault whose trigger point has been reached.  A
   [Stall] pushes the next arrival out; a [Disconnect] drops the link at
   the arrival time of the last delivered tuple; [Dead_on_arrival] is a
   link that was never up. *)
let fire_faults t =
  let due, pending =
    List.partition
      (fun f ->
        match f with
        | Stall { after_tuples; _ } | Disconnect { after_tuples; _ } ->
          after_tuples <= t.conn_delivered
        | Dead_on_arrival -> t.conn_delivered = 0)
      t.faults
  in
  t.faults <- pending;
  List.iter
    (fun f ->
      match f with
      | Stall { duration_s; _ } ->
        t.next_arrival <- t.next_arrival +. (duration_s *. 1e6)
      | Disconnect { rejoin_after_s; _ } ->
        if t.link = Link_up then
          t.link <-
            Link_down
              { rejoin_at =
                  Option.map
                    (fun s -> t.last_arrival +. (s *. 1e6))
                    rejoin_after_s }
      | Dead_on_arrival ->
        if t.link = Link_up then t.link <- Link_down { rejoin_at = None })
    due

let create ?(seed = 1) ?name ?(faults = []) ?(mirrors = []) relation model =
  incr counter;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "src%d" !counter
  in
  let t =
    { name; relation; model; initial_model = model; seed;
      initial_faults = faults;
      initial_mirrors = mirrors; pos = 0; observers = [];
      rng = Prng.create seed; next_arrival = 0.0; burst_left = 0;
      faults; mirrors; link = Link_up; conn_delivered = 0;
      last_arrival = 0.0; failovers = 0; redelivered = 0 }
  in
  fresh_burst t;
  fire_faults t;
  t

let name t = t.name
let schema t = Relation.schema t.relation
let relation t = t.relation
let cardinality t = Relation.cardinality t.relation
let consumed t = t.pos

let coverage sources =
  let delivered, total =
    List.fold_left
      (fun (d, n) src -> (d + consumed src, n + cardinality src))
      (0, 0) sources
  in
  if total = 0 then 1.0 else float_of_int delivered /. float_of_int total

let exhausted t = t.pos >= Relation.cardinality t.relation

let status t =
  match t.link with
  | Link_up -> Up
  | Link_down _ -> Down
  | Link_failed -> Failed

let finished t = exhausted t || t.link = Link_failed
let failovers t = t.failovers
let redelivered t = t.redelivered

let ready t = (not (exhausted t)) && t.link = Link_up
let arrival t = t.next_arrival

let advance_arrival t =
  match t.model with
  | Local -> ()
  | Bandwidth r -> t.next_arrival <- t.next_arrival +. (1e6 /. r)
  | Bursty b ->
    t.burst_left <- t.burst_left - 1;
    if t.burst_left <= 0 then begin
      fresh_burst t;
      let gap = Prng.exponential t.rng ~mean:(b.mean_gap *. 1e6) in
      t.next_arrival <- t.next_arrival +. gap
    end
    else t.next_arrival <- t.next_arrival +. (1e6 /. b.rate)

let rec notify tuple = function
  | [] -> ()
  | f :: rest ->
    f tuple;
    notify tuple rest

let take t =
  if not (ready t) then invalid_arg "Source.take: no tuple ready";
  let tuple = Relation.get t.relation t.pos in
  t.pos <- t.pos + 1;
  t.conn_delivered <- t.conn_delivered + 1;
  t.last_arrival <- t.next_arrival;
  advance_arrival t;
  if t.faults <> [] then fire_faults t;
  notify tuple t.observers;
  tuple

let next t =
  if ready t then begin
    let arrival = t.next_arrival in
    Some (take t, arrival)
  end
  else None

let inject t fault =
  t.faults <- t.faults @ [ fault ];
  fire_faults t

let add_mirror t m = t.mirrors <- t.mirrors @ [ m ]
let mirrors_remaining t = List.length t.mirrors

(* Rebase the arrival schedule after a (re)connection established at
   virtual time [at]: the first tuple is queued server-side, so it costs
   one inter-arrival gap (nothing for a local source). *)
let rebase_arrivals t ~at =
  (match t.model with
   | Local -> t.next_arrival <- at
   | Bandwidth r -> t.next_arrival <- at +. (1e6 /. r)
   | Bursty b ->
     fresh_burst t;
     t.next_arrival <- at +. (1e6 /. b.rate))

let try_reconnect t ~at =
  match t.link with
  | Link_up -> true
  | Link_failed -> false
  | Link_down { rejoin_at = Some r } when at >= r ->
    t.link <- Link_up;
    rebase_arrivals t ~at;
    true
  | Link_down _ -> false

let failover t ~at =
  match t.mirrors with
  | [] ->
    t.link <- Link_failed;
    false
  | m :: rest ->
    t.mirrors <- rest;
    t.failovers <- t.failovers + 1;
    (match m.mirror_model with Some md -> t.model <- md | None -> ());
    t.link <- Link_up;
    t.conn_delivered <- 0;
    t.faults <- m.mirror_faults;
    t.last_arrival <- at;
    rebase_arrivals t ~at;
    (* A lagging replica resumes from an earlier checkpoint and streams
       the overlap again.  The positions below [t.pos] already belong to
       a region of some phase, so the re-delivered prefix is skipped —
       but its transfer time is still paid on the wire. *)
    let replay = min t.pos m.lag_tuples in
    t.redelivered <- t.redelivered + replay;
    for _ = 1 to replay do
      advance_arrival t
    done;
    fire_faults t;
    true

let observe t f = t.observers <- t.observers @ [ f ]

let resume_at t ~pos ~at =
  let pos = max 0 (min pos (Relation.cardinality t.relation)) in
  t.pos <- pos;
  t.link <- Link_up;
  (* The recovered connection behaves like the primary reopened at the
     stream position the checkpoint recorded: faults whose trigger point
     lies below it already fired (and were survived) before the crash, so
     they are dropped rather than replayed; later triggers stay armed. *)
  t.conn_delivered <- pos;
  t.faults <-
    List.filter
      (fun f ->
        match f with
        | Stall { after_tuples; _ } | Disconnect { after_tuples; _ } ->
          after_tuples > pos
        | Dead_on_arrival -> pos = 0)
      t.faults;
  t.last_arrival <- at;
  rebase_arrivals t ~at;
  fire_faults t

let rewind t =
  t.pos <- 0;
  t.model <- t.initial_model;
  t.rng <- Prng.create t.seed;
  t.next_arrival <- 0.0;
  t.faults <- t.initial_faults;
  t.mirrors <- t.initial_mirrors;
  t.link <- Link_up;
  t.conn_delivered <- 0;
  t.last_arrival <- 0.0;
  t.failovers <- 0;
  t.redelivered <- 0;
  fresh_burst t;
  fire_faults t
