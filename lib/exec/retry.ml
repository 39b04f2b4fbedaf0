open Adp_datagen

type policy = {
  timeout_s : float;
  max_retries : int;
  backoff_initial_s : float;
  backoff_multiplier : float;
  backoff_max_s : float;
  jitter : float;
  seed : int;
}

let default_policy =
  { timeout_s = 60.0; max_retries = 4; backoff_initial_s = 0.5;
    backoff_multiplier = 2.0; backoff_max_s = 30.0; jitter = 0.1; seed = 7 }

let no_timeouts = { default_policy with timeout_s = infinity }

type t = {
  policy : policy;
  rng : Prng.t;
  mutable last_progress : float;
  mutable attempts : int;
  mutable next_attempt : float option;
  mutable retries_total : int;
}

let create ?(salt = 0) policy =
  { policy; rng = Prng.create (policy.seed + (salt * 1_000_003));
    last_progress = 0.0; attempts = 0; next_attempt = None;
    retries_total = 0 }

let policy t = t.policy
let attempts t = t.attempts
let retries_total t = t.retries_total
let exhausted t = t.attempts >= t.policy.max_retries

let deadline t = t.last_progress +. (t.policy.timeout_s *. 1e6)
let in_time t arrival = arrival <= deadline t
let pending_attempt t = t.next_attempt

let note_progress t ~now =
  t.last_progress <- now;
  t.attempts <- 0;
  t.next_attempt <- None

(* Exponential backoff with multiplicative jitter in
   [1-jitter, 1+jitter), drawn from the controller's own seeded stream so
   the schedule is deterministic per source. *)
let backoff t =
  let p = t.policy in
  let base =
    min p.backoff_max_s
      (p.backoff_initial_s
      *. (p.backoff_multiplier ** float_of_int (max 0 (t.attempts - 1))))
  in
  let j =
    if p.jitter <= 0.0 then 1.0
    else 1.0 -. p.jitter +. (2.0 *. p.jitter *. Prng.float t.rng)
  in
  base *. j *. 1e6

let record_failure t ~now =
  t.attempts <- t.attempts + 1;
  t.retries_total <- t.retries_total + 1;
  t.next_attempt <- Some (now +. backoff t)

let record_success t ~now =
  t.retries_total <- t.retries_total + 1;
  note_progress t ~now
