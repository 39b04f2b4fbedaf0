(* Telemetry over time: fixed-capacity ring-buffer series recording
   every registered metric cell, sampled at server dispatcher polls with
   the server's virtual clock as the time axis (an optional wall shadow
   rides along when the caller supplies one via the sanctioned
   [Wallclock] readings).  The sampler only *reads* the registry — it
   never touches the clock or the event heap — so a telemetered serve is
   bit-identical to a bare one by construction.

   Alongside the metric history the recorder keeps the server-side
   journal the [tukwila top] dashboard renders: per-query span
   transitions (submitted/started/.../done), warm-start provenance edges
   (which inherited signatures fed a query), and the SLO monitor's
   violation/recovery ledger. *)

type point = { p_t : float; p_v : float }

type series = {
  sr_name : string;
  sr_labels : (string * string) list;
  sr_kind : string;  (* "counter" | "gauge" *)
  sr_ring : point array;
  mutable sr_len : int;
  mutable sr_next : int;  (* next write slot *)
  mutable sr_total : int;  (* points ever recorded *)
}

type span = {
  sp_t : float;
  sp_query : string;
  sp_state : string;
  sp_worker : int;  (* -1 when not applicable *)
  sp_attempt : int;  (* 0 when not applicable *)
}

type prov = { pv_t : float; pv_query : string; pv_signatures : string list }

type slo_rec = {
  sl_t : float;
  sl_slo : string;
  sl_metric : string;
  sl_agg : string;
  sl_op : string;
  sl_value : float;
  sl_bound : float;
  sl_violated : bool;
}

(* Points retained per series ring, and the trailing sample count the
   windowed aggregates cover. *)
let capacity = 512
let window = 32

type t = {
  monitor : Slo.monitor;
  index : (string * (string * string) list, series) Hashtbl.t;
  mutable series : series list;  (* reversed insertion order *)
  mutable samples : int;
  mutable sample_log : (float * float option) list;  (* reversed *)
  mutable spans : span list;  (* reversed *)
  mutable provs : prov list;  (* reversed *)
  mutable slo_log : slo_rec list;  (* reversed *)
}

let create ?(slos = []) () =
  { monitor = Slo.monitor slos;
    index = Hashtbl.create 64; series = []; samples = 0; sample_log = [];
    spans = []; provs = []; slo_log = [] }

let samples t = t.samples
let series_count t = List.length t.series
let objectives t = Slo.objectives t.monitor

(* ------------------------------------------------------------------ *)
(* Rings                                                              *)
(* ------------------------------------------------------------------ *)

let push t name labels kind p =
  let sr =
    match Hashtbl.find_opt t.index (name, labels) with
    | Some sr -> sr
    | None ->
      let sr =
        { sr_name = name; sr_labels = labels; sr_kind = kind;
          sr_ring = Array.make capacity { p_t = 0.0; p_v = 0.0 };
          sr_len = 0; sr_next = 0; sr_total = 0 }
      in
      Hashtbl.replace t.index (name, labels) sr;
      t.series <- sr :: t.series;
      sr
  in
  sr.sr_ring.(sr.sr_next) <- p;
  sr.sr_next <- (sr.sr_next + 1) mod capacity;
  sr.sr_len <- min capacity (sr.sr_len + 1);
  sr.sr_total <- sr.sr_total + 1

(* Retained points in time order. *)
let points sr =
  let start =
    if sr.sr_len < capacity then 0 else sr.sr_next
  in
  List.init sr.sr_len (fun i -> sr.sr_ring.((start + i) mod capacity))

(* ------------------------------------------------------------------ *)
(* Windowed aggregates                                                *)
(* ------------------------------------------------------------------ *)

let quantile sorted q =
  let n = Array.length sorted in
  let r = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) r))

let aggregate_points ~window pts (agg : Slo.agg) =
  let pts =
    let n = List.length pts in
    if n <= window then pts
    else List.filteri (fun i _ -> i >= n - window) pts
  in
  match pts with
  | [] -> None
  | pts -> (
    match agg with
    | Slo.Last ->
      Some (List.fold_left (fun _ p -> p.p_v) 0.0 pts)
    | Slo.Rate -> (
      match pts with
      | [] | [ _ ] -> Some 0.0
      | first :: _ ->
        let last = List.fold_left (fun _ p -> p) first pts in
        let dt = last.p_t -. first.p_t in
        if dt <= 0.0 then Some 0.0
        else Some ((last.p_v -. first.p_v) /. dt))
    | Slo.Min | Slo.Median | Slo.P95 | Slo.Max ->
      let sorted =
        Array.of_list (List.sort compare (List.map (fun p -> p.p_v) pts))
      in
      Some
        (match agg with
         | Slo.Min -> sorted.(0)
         | Slo.Median -> quantile sorted 0.5
         | Slo.P95 -> quantile sorted 0.95
         | Slo.Max -> sorted.(Array.length sorted - 1)
         | _ -> assert false))

(* Current aggregate for every series carrying [metric] (one entry per
   label-set), in insertion order — the value provider the SLO monitor
   evaluates against. *)
let values t ~metric agg =
  List.rev t.series
  |> List.filter_map (fun sr ->
         if sr.sr_name = metric then
           aggregate_points ~window (points sr) agg
         else None)

let aggregate t ?(labels = []) ~metric agg =
  match Hashtbl.find_opt t.index (metric, labels) with
  | None -> None
  | Some sr -> aggregate_points ~window (points sr) agg

(* ------------------------------------------------------------------ *)
(* Recording                                                          *)
(* ------------------------------------------------------------------ *)

let sample t ~now_s ?wall_s metrics =
  t.samples <- t.samples + 1;
  t.sample_log <- (now_s, wall_s) :: t.sample_log;
  List.iter
    (fun (name, labels, reading) ->
      let pt v = { p_t = now_s; p_v = v } in
      match (reading : Metrics.reading) with
      | Metrics.Counter_v n ->
        push t name labels "counter" (pt (float_of_int n))
      | Metrics.Gauge_v g -> push t name labels "gauge" (pt g))
    (Metrics.readings metrics);
  let transitions = Slo.evaluate t.monitor ~values:(values t) in
  List.iter
    (fun (tr : Slo.transition) ->
      let o = tr.Slo.t_objective in
      t.slo_log <-
        { sl_t = now_s; sl_slo = o.Slo.o_name; sl_metric = o.Slo.o_metric;
          sl_agg = Slo.agg_name o.Slo.o_agg; sl_op = Slo.op_name o.Slo.o_op;
          sl_value = tr.Slo.t_value; sl_bound = o.Slo.o_bound;
          sl_violated = tr.Slo.t_violated }
        :: t.slo_log)
    transitions;
  transitions

let span t ~at_s ~query ~state ?(worker = -1) ?(attempt = 0) () =
  t.spans <-
    { sp_t = at_s; sp_query = query; sp_state = state; sp_worker = worker;
      sp_attempt = attempt }
    :: t.spans

let provenance t ~at_s ~query ~signatures =
  t.provs <-
    { pv_t = at_s; pv_query = query; pv_signatures = signatures } :: t.provs

(* ------------------------------------------------------------------ *)
(* JSONL export                                                       *)
(* ------------------------------------------------------------------ *)

let sorted_series t =
  List.sort
    (fun a b ->
      match String.compare a.sr_name b.sr_name with
      | 0 -> compare a.sr_labels b.sr_labels
      | c -> c)
    t.series

let spans_list t = List.rev t.spans
let provs_list t = List.rev t.provs
let slo_list t = List.rev t.slo_log

let to_jsonl t =
  let b = Buffer.create 4096 in
  let line j =
    Json.to_buffer b j;
    Buffer.add_char b '\n'
  in
  let num f = Json.Num f in
  let int i = Json.Num (float_of_int i) in
  let str s = Json.Str s in
  let wall = List.exists (fun (_, w) -> w <> None) t.sample_log in
  line
    (Json.Obj
       [ ("k", str "meta"); ("v", int 1); ("capacity", int capacity);
         ("window", int window);
         ( "slos",
           Json.List
             (List.map
                (fun o -> str (Slo.to_string o))
                (Slo.objectives t.monitor)) );
         ("samples", int t.samples); ("wall", Json.Bool wall) ]);
  List.iteri
    (fun i (ts, w) ->
      let base = [ ("k", str "sample"); ("i", int (i + 1)); ("t", num ts) ] in
      let shadow = match w with None -> [] | Some w -> [ ("wall", num w) ] in
      line (Json.Obj (base @ shadow)))
    (List.rev t.sample_log);
  List.iter
    (fun sp ->
      line
        (Json.Obj
           [ ("k", str "span"); ("t", num sp.sp_t);
             ("query", str sp.sp_query); ("state", str sp.sp_state);
             ("worker", int sp.sp_worker); ("attempt", int sp.sp_attempt) ]))
    (spans_list t);
  List.iter
    (fun pv ->
      line
        (Json.Obj
           [ ("k", str "prov"); ("t", num pv.pv_t);
             ("query", str pv.pv_query);
             ("signatures", Json.List (List.map str pv.pv_signatures)) ]))
    (provs_list t);
  List.iter
    (fun sl ->
      line
        (Json.Obj
           [ ("k", str "slo"); ("t", num sl.sl_t); ("slo", str sl.sl_slo);
             ("metric", str sl.sl_metric); ("agg", str sl.sl_agg);
             ("op", str sl.sl_op); ("value", num sl.sl_value);
             ("bound", num sl.sl_bound);
             ("violated", Json.Bool sl.sl_violated) ]))
    (slo_list t);
  List.iter
    (fun sr ->
      line
        (Json.Obj
           [ ("k", str "series"); ("name", str sr.sr_name);
             ( "labels",
               Json.Obj (List.map (fun (k, v) -> (k, str v)) sr.sr_labels) );
             ("kind", str sr.sr_kind); ("total", int sr.sr_total);
             ( "points",
               Json.List
                 (List.map
                    (fun p -> Json.List [ num p.p_t; num p.p_v ])
                    (points sr)) ) ]))
    (sorted_series t);
  Buffer.contents b

let write t ~path = Adp_storage.Snapshot.write_text ~path (to_jsonl t)

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

type dseries = {
  ds_name : string;
  ds_labels : (string * string) list;
  ds_kind : string;
  ds_total : int;
  ds_points : (float * float) list;
}

type doc = {
  d_capacity : int;
  d_window : int;
  d_slos : string list;
  d_samples : (float * float option) list;
  d_spans : span list;
  d_provs : prov list;
  d_slo_log : slo_rec list;
  d_series : dseries list;
}

(* [fold] is a {!Json.fold_lines} partially applied to its source. *)
let decode fold =
  let empty =
    { d_capacity = 0; d_window = 0; d_slos = []; d_samples = [];
      d_spans = []; d_provs = []; d_slo_log = []; d_series = [] }
  in
  let parse_line doc j =
    let int k = Json.req j k Json.get_int in
    let num k = Json.req j k Json.get_num in
    let str k = Json.req j k Json.get_str in
    match Json.req j "k" Json.get_str with
    | "meta" ->
      let slos =
        match Json.member "slos" j with
        | Some (Json.List l) ->
          List.map
            (fun s ->
              match Json.get_str s with
              | Some s -> s
              | None -> raise (Json.Bad "bad slo entry"))
            l
        | _ -> raise (Json.Bad "missing field \"slos\"")
      in
      { doc with d_capacity = int "capacity"; d_window = int "window";
        d_slos = slos }
    | "sample" ->
      let wall = Option.bind (Json.member "wall" j) Json.get_num in
      { doc with d_samples = (num "t", wall) :: doc.d_samples }
    | "span" ->
      { doc with
        d_spans =
          { sp_t = num "t"; sp_query = str "query"; sp_state = str "state";
            sp_worker = int "worker"; sp_attempt = int "attempt" }
          :: doc.d_spans }
    | "prov" ->
      let signatures =
        match Json.member "signatures" j with
        | Some (Json.List l) ->
          List.map
            (fun s ->
              match Json.get_str s with
              | Some s -> s
              | None -> raise (Json.Bad "bad signature entry"))
            l
        | _ -> raise (Json.Bad "missing field \"signatures\"")
      in
      { doc with
        d_provs =
          { pv_t = num "t"; pv_query = str "query";
            pv_signatures = signatures }
          :: doc.d_provs }
    | "slo" ->
      let violated = Json.req j "violated" Json.get_bool in
      { doc with
        d_slo_log =
          { sl_t = num "t"; sl_slo = str "slo"; sl_metric = str "metric";
            sl_agg = str "agg"; sl_op = str "op"; sl_value = num "value";
            sl_bound = num "bound"; sl_violated = violated }
          :: doc.d_slo_log }
    | "series" ->
      let labels =
        match Json.member "labels" j with
        | Some (Json.Obj kvs) ->
          List.map
            (fun (k, v) ->
              match Json.get_str v with
              | Some v -> (k, v)
              | None -> raise (Json.Bad "bad label entry"))
            kvs
        | _ -> raise (Json.Bad "missing field \"labels\"")
      in
      let pts =
        match Json.member "points" j with
        | Some (Json.List l) ->
          List.map
            (fun p ->
              match p with
              | Json.List [ a; b ] -> (
                match (Json.get_num a, Json.get_num b) with
                | Some a, Some b -> (a, b)
                | _ -> raise (Json.Bad "bad point entry"))
              | _ -> raise (Json.Bad "bad point entry"))
            l
        | _ -> raise (Json.Bad "missing field \"points\"")
      in
      { doc with
        d_series =
          { ds_name = str "name"; ds_labels = labels; ds_kind = str "kind";
            ds_total = int "total"; ds_points = pts }
          :: doc.d_series }
    | other -> raise (Json.Bad (Printf.sprintf "unknown line kind %S" other))
  in
  Result.map
    (fun doc ->
      { doc with d_samples = List.rev doc.d_samples;
        d_spans = List.rev doc.d_spans; d_provs = List.rev doc.d_provs;
        d_slo_log = List.rev doc.d_slo_log;
        d_series = List.rev doc.d_series })
    (fold parse_line empty)

let of_jsonl text = decode (Json.fold_lines ~name:"telemetry" text)
let read path = decode (Json.read_lines path)

(* ------------------------------------------------------------------ *)
(* The [tukwila top] dashboard                                        *)
(* ------------------------------------------------------------------ *)

let fnum = Json.float_str

(* ASCII intensity ramp for sparklines (low -> high). *)
let ramp = " .:-=+*#%@"

let sparkline width pts =
  let vals = List.map snd pts in
  let n = List.length vals in
  let vals =
    if n <= width then vals
    else List.filteri (fun i _ -> i >= n - width) vals
  in
  match vals with
  | [] -> ""
  | v :: tl ->
    let lo = List.fold_left Float.min v tl in
    let hi = List.fold_left Float.max v tl in
    let levels = String.length ramp - 1 in
    String.concat ""
      (List.map
         (fun v ->
           let i =
             if hi -. lo <= 0.0 then 0
             else
               int_of_float
                 (Float.round ((v -. lo) /. (hi -. lo) *. float_of_int levels))
           in
           String.make 1 ramp.[max 0 (min levels i)])
         vals)

let terminal_char = function
  | "done" -> Some 'D'
  | "failed" -> Some 'X'
  | "cancelled" -> Some 'C'
  | "rejected" -> Some 'R'
  | _ -> None

(* Per-query lanes on the server clock: '.' while queued, '=' while
   running, '!' at a reclaim, a terminal letter at the end state. *)
let render_lanes ppf ~t0 ~t1 spans =
  let width = 44 in
  let col ts =
    if t1 <= t0 then 0
    else
      max 0
        (min (width - 1)
           (int_of_float
              (Float.round
                 ((ts -. t0) /. (t1 -. t0) *. float_of_int (width - 1)))))
  in
  let queries =
    List.fold_left
      (fun acc sp -> if List.mem sp.sp_query acc then acc else sp.sp_query :: acc)
      [] spans
    |> List.rev
  in
  let name_w =
    List.fold_left (fun w q -> max w (String.length q)) 5 queries
  in
  List.iter
    (fun q ->
      let evs = List.filter (fun sp -> sp.sp_query = q) spans in
      let lane = Bytes.make width ' ' in
      let fill a b c =
        for i = col a to col b do
          Bytes.set lane i c
        done
      in
      let find state =
        List.find_opt (fun sp -> sp.sp_state = state) evs
      in
      let terminal =
        List.find_opt (fun sp -> terminal_char sp.sp_state <> None) evs
      in
      let submit = find "submitted" in
      let started = find "started" in
      let t_end =
        match terminal with Some sp -> sp.sp_t | None -> t1
      in
      (match (submit, started) with
       | Some s, Some r -> fill s.sp_t r.sp_t '.'
       | Some s, None -> fill s.sp_t t_end '.'
       | None, _ -> ());
      (match started with Some r -> fill r.sp_t t_end '=' | None -> ());
      List.iter
        (fun sp ->
          if sp.sp_state = "reclaimed" then Bytes.set lane (col sp.sp_t) '!')
        evs;
      (match terminal with
       | Some sp -> (
         match terminal_char sp.sp_state with
         | Some c -> Bytes.set lane (col sp.sp_t) c
         | None -> ())
       | None -> ());
      let attempts =
        List.fold_left (fun a sp -> max a sp.sp_attempt) 0 evs
      in
      let outcome =
        match terminal with
        | Some sp -> Printf.sprintf "%s at %ss" sp.sp_state (fnum sp.sp_t)
        | None -> "unfinished"
      in
      Format.fprintf ppf "  %-*s |%s| %s%s@." name_w q
        (Bytes.to_string lane) outcome
        (if attempts > 1 then Printf.sprintf " (attempts %d)" attempts
         else ""))
    queries

let top ppf doc =
  let sample_times = List.map fst doc.d_samples in
  let all_times =
    sample_times
    @ List.map (fun sp -> sp.sp_t) doc.d_spans
    @ List.concat_map (fun ds -> List.map fst ds.ds_points) doc.d_series
  in
  let t0 = List.fold_left Float.min infinity all_times in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let t1 = List.fold_left Float.max t0 all_times in
  Format.fprintf ppf
    "== tukwila top: %d sample%s on the server clock %ss .. %ss (capacity \
     %d, window %d)%s@."
    (List.length doc.d_samples)
    (if List.length doc.d_samples = 1 then "" else "s")
    (fnum t0) (fnum t1) doc.d_capacity doc.d_window
    (if List.exists (fun (_, w) -> w <> None) doc.d_samples then
       " [wall shadow]"
     else "");
  if doc.d_spans <> [] then begin
    Format.fprintf ppf
      "-- query lanes ('.' queued, '=' running, '!' reclaim; D done, X \
       failed, C cancelled, R rejected):@.";
    render_lanes ppf ~t0 ~t1 doc.d_spans
  end;
  let unlabelled, labelled =
    List.partition (fun ds -> ds.ds_labels = []) doc.d_series
  in
  if unlabelled <> [] then begin
    Format.fprintf ppf "-- series (sparkline; window aggregates):@.";
    let name_w =
      List.fold_left
        (fun w ds -> max w (String.length ds.ds_name))
        0 unlabelled
    in
    List.iter
      (fun ds ->
        let pts =
          List.map (fun (t, v) -> { p_t = t; p_v = v }) ds.ds_points
        in
        let agg a =
          match aggregate_points ~window:doc.d_window pts a with
          | Some v -> fnum v
          | None -> "-"
        in
        Format.fprintf ppf "  %-*s %-7s [%-20s] last %s min %s median %s \
                            p95 %s@."
          name_w ds.ds_name ds.ds_kind
          (sparkline 20 ds.ds_points)
          (agg Slo.Last) (agg Slo.Min) (agg Slo.Median) (agg Slo.P95))
      unlabelled;
    if labelled <> [] then
      Format.fprintf ppf "  (+%d labelled series in the JSONL)@."
        (List.length labelled)
  end;
  if doc.d_slos <> [] then begin
    Format.fprintf ppf "-- slo:@.";
    List.iter
      (fun decl ->
        let name =
          match String.index_opt decl '=' with
          | Some i -> String.sub decl 0 i
          | None -> decl
        in
        let log =
          List.filter (fun sl -> sl.sl_slo = name) doc.d_slo_log
        in
        let violations =
          List.length (List.filter (fun sl -> sl.sl_violated) log)
        in
        let state =
          match List.rev log with
          | last :: _ when last.sl_violated -> "VIOLATED"
          | _ -> "healthy"
        in
        Format.fprintf ppf "  %-40s %s (%d violation%s)@." decl state
          violations
          (if violations = 1 then "" else "s");
        List.iter
          (fun sl ->
            Format.fprintf ppf "    [%ss] %s: %s %s = %s (objective %s %s)@."
              (fnum sl.sl_t)
              (if sl.sl_violated then "VIOLATED" else "recovered")
              sl.sl_metric sl.sl_agg (fnum sl.sl_value) sl.sl_op
              (fnum sl.sl_bound))
          log)
      doc.d_slos
  end;
  if doc.d_provs <> [] then begin
    Format.fprintf ppf "-- warm-start provenance:@.";
    List.iter
      (fun pv ->
        Format.fprintf ppf "  [%ss] %s inherited %d signature%s: %s@."
          (fnum pv.pv_t) pv.pv_query
          (List.length pv.pv_signatures)
          (if List.length pv.pv_signatures = 1 then "" else "s")
          (String.concat ", " pv.pv_signatures))
      doc.d_provs
  end
