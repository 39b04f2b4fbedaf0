(** Structured diagnostics produced by the static plan analyzer.

    Every problem the analyzer finds is reported as one of these instead
    of a mid-run [Invalid_argument]: a stable kebab-case code (what went
    wrong), a severity, a path locating the problem (a plan-tree path
    like ["root.left.right"], a source name, or a file:line for the
    determinism audit), and a human-readable message.  Codes are part of
    the tool's interface — tests and scripts match on them — so existing
    codes must not be renamed. *)

type severity = Error | Warning

type t = {
  code : string;  (** stable kebab-case identifier, e.g. ["unknown-column"] *)
  severity : severity;
  path : string;  (** where: plan path, source name, or file:line *)
  message : string;
}

val error : code:string -> path:string -> string -> t
val warning : code:string -> path:string -> string -> t

(** [errorf ~code ~path fmt ...] — formatted {!error}. *)
val errorf :
  code:string -> path:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val has_errors : t list -> bool

(** Only the [Error]-severity entries. *)
val errors : t list -> t list

(** Distinct codes present, sorted. *)
val codes : t list -> string list

val pp : Format.formatter -> t -> unit
val to_string : t list -> string

(** Raised by plan-boundary hooks when analysis finds errors; carries the
    boundary name and every diagnostic so the failure reports all
    problems at once. *)
exception Failed of string * t list

(** [raise_if_errors ~where diags] raises {!Failed} when [diags] contains
    at least one error ([where] prefixes the exception message context);
    warnings alone never raise. *)
val raise_if_errors : where:string -> t list -> unit
