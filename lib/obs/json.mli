(** Minimal JSON tree, printer and parser.

    The observability layer writes JSONL traces and bench documents,
    and must also read its own JSONL back for
    [tukwila explain].  Rather than pull a dependency
    into the build, this is a small self-contained JSON implementation:
    a value tree, a compact printer with round-trippable float formatting,
    and a recursive-descent parser for standard JSON. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_buffer : Buffer.t -> t -> unit

(** Shortest decimal form that parses back to the same float; integral
    values print without a fractional part.  Non-finite floats (which
    JSON cannot represent) print as [null]. *)
val float_str : float -> string

val parse : string -> (t, string) result

(** {2 Accessors} — total; [None] on shape mismatch. *)

val member : string -> t -> t option
val get_num : t -> float option
val get_int : t -> int option
val get_str : t -> string option
val get_bool : t -> bool option
val get_list : t -> t list option

(** {2 JSON Lines} *)

(** Raised by line decoders; {!read_lines} reports it with the line. *)
exception Bad of string

(** [req j k get] is field [k] of [j] read through [get]; raises {!Bad}
    naming the field when it is missing or mistyped. *)
val req : t -> string -> (t -> 'a option) -> 'a

(** [read_lines path f init] folds [f] over the JSON value of each
    non-blank line of file [path], first line first.  The first syntax
    error or {!Bad} from [f] comes back as ["path:N: reason"]; an
    unreadable file is [Error] with the system's message. *)
val read_lines : string -> ('a -> t -> 'a) -> 'a -> ('a, string) result
