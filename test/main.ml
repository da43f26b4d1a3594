let () =
  Alcotest.run "tpi_repro"
    [ ("util", Test_util.suite);
      ("geom", Test_geom.suite);
      ("stdcell", Test_stdcell.suite);
      ("netlist", Test_netlist.suite);
      ("circuits", Test_circuits.suite);
      ("iscas", Test_iscas.suite);
      ("lbist", Test_lbist.suite);
      ("testability", Test_testability.suite);
      ("tpi", Test_tpi.suite);
      ("scan", Test_scan.suite);
      ("atpg", Test_atpg.suite);
      ("layout", Test_layout.suite);
      ("place-exact", Test_layout.exactness);
      ("sta", Test_sta.suite);
      ("incremental", Test_incremental.suite);
      ("rollback", Test_incremental.rollback);
      ("extra", Test_extra.suite);
      ("repair", Test_repair.suite);
      ("properties", Test_props.suite);
      ("edge-cases", Test_more.suite);
      ("flow", Test_flow.suite);
      ("guard", Test_guard.suite);
      ("obs", Test_obs.suite);
      ("cache", Test_cache.suite);
      ("serve", Test_serve.suite);
      ("telemetry", Test_telemetry.suite);
      ("lint", Test_lint.suite) ]
