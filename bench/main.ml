(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.  Run all experiments with [dune exec bench/main.exe], or a
   subset with e.g. [dune exec bench/main.exe -- figure2 table1].  The
   scale factor defaults to 0.02 and can be overridden with ADP_SCALE. *)

let experiments =
  [ "figure2", ("static vs corrective vs plan partitioning", Bench_figure2.run);
    "table1", ("CQP breakdown, local data", Bench_table1.run);
    "figure3", ("CQP over a bursty wireless network", Bench_figure3.run);
    "table2", ("CQP breakdown, wireless", Bench_table2.run);
    "figure5", ("complementary join pair", Bench_figure5.run);
    "table3", ("complementary join distribution", Bench_figure5.table3);
    "figure6", ("pre-aggregation strategies", Bench_figure6.run);
    "sec45", ("join-size predictability", Bench_sec45.run);
    "ablation", ("design-choice ablations", Bench_ablation.run);
    "faults", ("fault-tolerance sweep, disconnects x retry budgets", Bench_faults.run);
    "recovery", ("checkpoint overhead and crash recovery", Bench_recovery.run);
    "check", ("static-analyzer overhead per plan boundary", Bench_check.run);
    "trace", ("observability overhead and clock-perturbation check", Bench_trace.run);
    "profile", ("profiler overhead, zero-perturbation and blame check", Bench_profile.run);
    "server", ("multi-query server: supervision, adaptive polling, warm starts", Bench_server.run);
    "governance", ("resource governance: deadlines, memory ceilings, breakers, overload", Bench_governance.run) ]

let usage () =
  print_endline "usage: main.exe [experiment ...]";
  print_endline "experiments:";
  List.iter
    (fun (name, (descr, _)) -> Printf.printf "  %-9s %s\n" name descr)
    experiments;
  print_endline "  all       everything (default)"

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: [] | _ :: [ "all" ] -> List.map fst experiments
    | _ :: args -> args
    | [] -> List.map fst experiments
  in
  if List.mem "--help" requested || List.mem "-h" requested then usage ()
  else begin
    Printf.printf
      "Tukwila ADP reproduction benchmarks (TPC scale factor %g)\n"
      Bench_common.scale;
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some (_, run) ->
          let t0 = Adp_obs.Wallclock.cpu_now () in
          run ();
          Printf.printf "[%s finished in %.1fs of CPU time]\n%!" name
            (Adp_obs.Wallclock.cpu_now () -. t0)
        | None ->
          Printf.printf "unknown experiment %S\n" name;
          usage ();
          exit 1)
      requested
  end
