open Adp_relation
open Adp_exec
open Adp_optimizer

type stats = {
  candidates : int;
  winner : int;
  winner_desc : string;
  explore_time : float;
  total_time : float;
  cpu : float;
  idle : float;
  result_card : int;
}

type competitor = {
  index : int;
  spec : Plan.spec;
  plan : Plan.t;
  sources : Source.t list;
  sink : Sink.t;
  mutable read : int;
  mutable exhausted : bool;
}

let run ?(candidates = 3) ?(explore_budget = 2e6) query catalog ~sources =
  let sels = Adp_stats.Selectivity.create () in
  let ctx = Ctx.create () in
  let schema_of = Catalog.schema_of catalog in
  let alts =
    Optimizer.alternatives ~k:candidates query catalog sels
  in
  let keep = Logical.keep query in
  let comps =
    List.mapi
      (fun index (r : Optimizer.result) ->
        let plan =
          Plan.instantiate ~record_outputs:false ctx r.spec ~schema_of ~keep
        in
        { index; spec = r.spec; plan; sources = sources ();
          sink = Sink.create ctx query ~canonical:(Plan.schema plan);
          read = 0; exhausted = false })
      alts
  in
  let consume comp src tuple =
    comp.read <- comp.read + 1;
    let outs = Plan.push comp.plan ~source:(Source.name src) tuple in
    Sink.feed comp.sink ~from:(Plan.schema comp.plan) outs
  in
  (* Exploration: give each competitor an equal virtual-time slice. *)
  let slice = explore_budget /. float_of_int (max 1 (List.length comps)) in
  List.iter
    (fun comp ->
      let deadline = Ctx.now ctx +. slice in
      let poll () = if Ctx.now ctx >= deadline then `Switch else `Continue in
      match
        Driver.run ctx ~sources:comp.sources
          ~consume:(consume comp)
          ~poll:(slice /. 16.0, poll)
          ()
      with
      | Driver.Exhausted -> comp.exhausted <- true
      | Driver.Switched -> ()
      | Driver.Stopped -> assert false)
    comps;
  let explore_time = Ctx.now ctx in
  (* Keep the plan that progressed furthest (finishing counts as furthest). *)
  let winner =
    List.fold_left
      (fun best comp ->
        let score c =
          if c.exhausted then max_int else c.read
        in
        if score comp > score best then comp else best)
      (List.hd comps) comps
  in
  if not winner.exhausted then begin
    (match
       Driver.run ctx ~sources:winner.sources ~consume:(consume winner) ()
     with
     | Driver.Exhausted -> ()
     | Driver.Switched | Driver.Stopped -> assert false)
  end;
  Sink.feed winner.sink ~from:(Plan.schema winner.plan) (Plan.flush winner.plan);
  let result = Sink.result winner.sink in
  ( result,
    { candidates = List.length comps; winner = winner.index;
      winner_desc = Format.asprintf "%a" Plan.pp_spec winner.spec;
      explore_time; total_time = Ctx.now ctx;
      cpu = Clock.cpu ctx.Ctx.clock; idle = Clock.idle ctx.Ctx.clock;
      result_card = Relation.cardinality result } )
