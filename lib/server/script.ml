module Diagnostic = Adp_analysis.Diagnostic
module Crash = Adp_recovery.Crash

type directive =
  | Submit of {
      qid : string;
      spec : string;
      klass : string option;
      deadline_s : float option;
    }
  | Kill of { qid : string; point : Crash.point }
  | Cancel of string
  | Drain

type t = (float * directive) list

let is_qid s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       s

let parse_point s =
  let prefixed p =
    if String.length s > String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match prefixed "tuples:" with
  | Some n -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Some (Crash.After_tuples n)
    | _ -> None)
  | None -> (
    match prefixed "phase:" with
    | Some k -> (
      match int_of_string_opt k with
      | Some k when k >= 0 -> Some (Crash.At_phase_boundary k)
      | _ -> None)
    | None -> if s = "stitchup" then Some Crash.During_stitchup else None)

(* Split on runs of spaces/tabs. *)
let tokens line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun s -> s <> "")

let parse ?(file = "<script>") text =
  let diags = ref [] in
  let err ~code ~line fmt =
    Format.kasprintf
      (fun msg ->
        diags :=
          Diagnostic.error ~code ~path:(Printf.sprintf "%s:%d" file line) msg
          :: !diags)
      fmt
  in
  let directives = ref [] in
  let submitted = Hashtbl.create 16 in
  let referenced = ref [] in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let body =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      if String.trim body = "" then ()
      else begin
        match tokens body with
        | "at" :: time :: rest -> (
          match float_of_string_opt time with
          | None ->
            err ~code:"script-bad-time" ~line
              "bad virtual timestamp %S (want a finite number of seconds >= 0)"
              time
          | Some at when not (Float.is_finite at) || at < 0.0 ->
            err ~code:"script-bad-time" ~line
              "bad virtual timestamp %S (want a finite number of seconds >= 0)"
              time
          | Some at -> (
            match rest with
            | "submit" :: qid :: spec when spec <> [] ->
              if not (is_qid qid) then
                err ~code:"script-bad-qid" ~line
                  "bad query id %S (letters, digits, '_', '-')" qid
              else if Hashtbl.mem submitted qid then
                err ~code:"script-duplicate-qid" ~line
                  "query id %S submitted twice" qid
              else begin
                (* Optional governance tokens sit between the qid and the
                   query text: class=<name>, deadline=<seconds>. *)
                let opt prefix tok =
                  let pl = String.length prefix in
                  if String.length tok > pl && String.sub tok 0 pl = prefix
                  then Some (String.sub tok pl (String.length tok - pl))
                  else None
                in
                let klass = ref None and deadline_s = ref None in
                let ok = ref true in
                let rec peel = function
                  | tok :: tl as all -> (
                    match opt "class=" tok with
                    | Some c ->
                      if is_qid c then klass := Some c
                      else begin
                        ok := false;
                        err ~code:"script-bad-class" ~line
                          "bad priority class %S (letters, digits, '_', '-')"
                          c
                      end;
                      peel tl
                    | None -> (
                      match opt "deadline=" tok with
                      | Some d -> (
                        (match float_of_string_opt d with
                         | Some d when Float.is_finite d && d > 0.0 ->
                           deadline_s := Some d
                         | Some _ | None ->
                           ok := false;
                           err ~code:"script-bad-deadline" ~line
                             "bad deadline %S (want a finite number of \
                              seconds > 0)"
                             d);
                        peel tl)
                      | None -> all))
                  | [] -> []
                in
                let spec = peel spec in
                if spec = [] then
                  err ~code:"script-syntax" ~line
                    "submit wants: at <seconds> submit <qid> [class=<name>] \
                     [deadline=<seconds>] <query>"
                else if !ok then begin
                  Hashtbl.replace submitted qid ();
                  directives :=
                    ( at,
                      Submit
                        { qid; spec = String.concat " " spec;
                          klass = !klass; deadline_s = !deadline_s } )
                    :: !directives
                end
              end
            | "submit" :: _ ->
              err ~code:"script-syntax" ~line
                "submit wants: at <seconds> submit <qid> <query>"
            | [ "kill"; qid; point ] -> (
              referenced := (qid, line) :: !referenced;
              match parse_point point with
              | Some p -> directives := (at, Kill { qid; point = p }) :: !directives
              | None ->
                err ~code:"script-bad-point" ~line
                  "bad crash point %S (want tuples:<n>, phase:<k> or stitchup)"
                  point)
            | [ "cancel"; qid ] ->
              referenced := (qid, line) :: !referenced;
              directives := (at, Cancel qid) :: !directives
            | [ "drain" ] -> directives := (at, Drain) :: !directives
            | verb :: _ ->
              err ~code:"script-syntax" ~line "unknown directive %S" verb
            | [] ->
              err ~code:"script-syntax" ~line
                "missing directive after the timestamp"))
        | _ ->
          err ~code:"script-syntax" ~line
            "every directive starts with: at <seconds> ..."
      end)
    (String.split_on_char '\n' text);
  List.iter
    (fun (qid, line) ->
      if not (Hashtbl.mem submitted qid) then
        err ~code:"script-unknown-qid" ~line
          "query id %S is never submitted in this script" qid)
    (List.rev !referenced);
  match List.rev !diags with
  | [] ->
    Ok
      (List.stable_sort
         (fun (a, _) (b, _) -> Float.compare a b)
         (List.rev !directives))
  | diags -> Error diags

let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse ~file:path text
  | exception Sys_error msg ->
    Error [ Diagnostic.error ~code:"script-io-error" ~path msg ]
