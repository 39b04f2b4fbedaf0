open Adp_exec
open Adp_storage

type t = {
  id : int;
  spec : Plan.spec;
  plan : Plan.t;
  mutable emitted : int;
}

let create ?record_outputs ?record_root ~id ctx spec ~schema_of ~keep =
  { id; spec;
    plan =
      Plan.instantiate ?record_outputs ?record_root ctx spec ~schema_of ~keep;
    emitted = 0 }

let register t registry =
  (* The root's results were already emitted to the shared sink; only the
     strictly intermediate join nodes are worth registering for reuse. *)
  let total = List.length (Plan.relations t.spec) in
  List.iter
    (fun (signature, schema, tuples, complexity) ->
      if complexity < total then
        Registry.register registry ~signature ~phase:t.id ~schema ~complexity
          tuples)
    (Plan.node_results t.plan)
