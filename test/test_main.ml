let () =
  Alcotest.run "tukwila-adp"
    [ "value", Test_value.suite;
      "schema", Test_schema.suite;
      "tuple", Test_tuple.suite;
      "predicate", Test_predicate.suite;
      "expr", Test_expr.suite;
      "relation", Test_relation.suite;
      "datagen", Test_datagen.suite;
      "stats", Test_stats.suite;
      "storage", Test_storage.suite;
      "exec", Test_exec.suite;
      "faults", Test_faults.suite;
      "plan", Test_plan.suite;
      "joins", Test_joins.suite;
      "eddy", Test_eddy.suite;
      "preagg", Test_preagg.suite;
      "optimizer", Test_optimizer.suite;
      "stitchup", Test_stitchup.suite;
      "analysis", Test_analysis.suite;
      "strategies", Test_strategies.suite;
      "sql", Test_sql.suite;
      "report", Test_report.suite;
      "obs", Test_obs.suite;
      "recovery", Test_recovery.suite;
      "server", Test_server.suite;
      "governance", Test_governance.suite;
      "pins", Test_pins.suite ]
