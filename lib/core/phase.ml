open Adp_exec

type t = {
  id : int;
  spec : Plan.spec;
  plan : Plan.t;
  mutable emitted : int;
  mutable read : int;
  mutable ends : (string * int) list;
}

let create ?record_outputs ?record_root ~id ctx spec ~schema_of ~keep =
  { id; spec;
    plan =
      Plan.instantiate ?record_outputs ?record_root ctx spec ~schema_of ~keep;
    emitted = 0; read = 0; ends = [] }
