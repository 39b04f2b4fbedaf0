module Diagnostic = Adp_analysis.Diagnostic
module Crash = Adp_recovery.Crash

(** Script-driven server workloads: a text file of timestamped
    directives, one per line, driving [tukwila serve] deterministically.

    Grammar (blank lines and [#] comments ignored):
    {v
    at <seconds> submit <qid> [class=<name>] [deadline=<seconds>] <query>
    at <seconds> kill <qid> tuples:<n> | phase:<k> | stitchup
    at <seconds> cancel <qid>
    at <seconds> drain
    v}

    [<seconds>] is server virtual time.  [<query>] is the rest of the
    line: a bundled workload name (Q3, Q10A, ...) or a SQL text —
    whatever the server's resolver accepts.  [class=] names the
    admission priority class the server must know (its quotas bound
    each class's share of the queue); [deadline=] is a per-query budget
    in virtual seconds from submission — queued work whose deadline has
    already passed is shed instead of dispatched, and a dispatched
    query degrades to a partial answer when the deadline hits
    mid-execution.  [kill] arms a deterministic {!Adp_recovery.Crash}
    point for the named query's worker; [drain] stops admissions,
    letting accepted work finish. *)

type directive =
  | Submit of {
      qid : string;
      spec : string;
      klass : string option;  (** admission priority class *)
      deadline_s : float option;  (** budget from submission, seconds *)
    }
  | Kill of { qid : string; point : Crash.point }
  | Cancel of string
  | Drain

(** Directives sorted by time; equal times keep file order. *)
type t = (float * directive) list

(** Parse a script text.  Every problem is reported at once as
    diagnostics with stable [script-*] codes ([script-syntax],
    [script-bad-time], [script-bad-qid], [script-bad-point],
    [script-bad-class], [script-bad-deadline], [script-duplicate-qid],
    [script-unknown-qid]); the path of each is [<file>:<line>]. *)
val parse : ?file:string -> string -> (t, Diagnostic.t list) result

(** {!parse} on a file's contents ([script-io-error] when unreadable). *)
val parse_file : string -> (t, Diagnostic.t list) result
