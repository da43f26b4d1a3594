(* flow: the Figure-2 pipeline, experiment matrix, report tables *)
module P = Flow.Pipeline

let tiny_options ~tp ~atpg =
  { P.default_options with
    P.tp_percent = tp;
    chain_config = Scan.Chains.Max_length 20;
    run_atpg = atpg }

let test_pipeline_consistency () =
  let d = Circuits.Bench.tiny ~ffs:50 ~gates:600 () in
  let r = Helpers.run_flow ~options:(tiny_options ~tp:2.0 ~atpg:true) d in
  Netlist.Check.assert_clean d;
  Alcotest.(check int) "tp count = 2% of ffs" 1 r.P.tp_count;
  Alcotest.(check int) "stats see the TSFF" 1 r.P.stats.Netlist.Stats.test_points;
  Alcotest.(check bool) "atpg ran" true (r.P.atpg <> None);
  Alcotest.(check bool) "tdv consistent" true
    (r.P.tdv_bits
     = Atpg.Tdv.tdv
         ~chains:(Scan.Chains.num_chains r.P.chains)
         ~lmax:r.P.chains.Scan.Chains.lmax
         ~patterns:(match r.P.atpg with Some o -> Atpg.Patgen.num_patterns o | None -> 0));
  Alcotest.(check bool) "sta has a path" true (r.P.sta.Sta.Analysis.worst <> None);
  Alcotest.(check bool) "cts ran" true (r.P.cts.Layout.Cts.buffers > 0)

let test_pipeline_no_atpg_faster_path () =
  let d = Circuits.Bench.tiny ~ffs:50 ~gates:600 () in
  let r = Helpers.run_flow ~options:(tiny_options ~tp:0.0 ~atpg:false) d in
  Alcotest.(check bool) "no atpg outcome" true (r.P.atpg = None);
  Alcotest.(check int) "tdv zero" 0 r.P.tdv_bits

let test_area_grows_with_tp () =
  let run tp =
    let d = Circuits.Bench.tiny ~ffs:100 ~gates:1200 () in
    let r = Helpers.run_flow ~options:(tiny_options ~tp ~atpg:false) d in
    Layout.Floorplan.core_area r.P.placement.Layout.Place.fp
  in
  let a0 = run 0.0 and a5 = run 5.0 in
  Alcotest.(check bool) "core grows" true (a5 > a0);
  Alcotest.(check bool) "but by little" true (a5 < a0 *. 1.03)

let test_experiment_specs () =
  let s = Flow.Experiment.spec_for "pcore_b" in
  Alcotest.(check bool) "dsp uses 32 chains" true
    (s.Flow.Experiment.chain_config = Scan.Chains.Num_chains 32);
  Helpers.check_approx "dsp utilization" 0.5 s.Flow.Experiment.utilization;
  Alcotest.(check bool) "unknown rejected" true
    (try ignore (Flow.Experiment.spec_for "nope"); false with Invalid_argument _ -> true)

let test_tables_render () =
  let rows =
    List.map Flow.Experiment.row_exn
      (Flow.Experiment.sweep ~with_atpg:true ~tp_levels:[ 0; 2 ]
         (Flow.Experiment.spec_for ~scale:0.06 "s38417"))
  in
  let t1 = Flow.Report.table1 rows in
  let t2 = Flow.Report.table2 rows in
  let t3 = Flow.Report.table3 rows in
  Alcotest.(check bool) "t1 mentions faults" true
    (String.length t1 > 0 && Astring_contains.contains t1 "#faults");
  Alcotest.(check bool) "t2 mentions core" true (Astring_contains.contains t2 "core um2");
  Alcotest.(check bool) "t3 mentions skew" true (Astring_contains.contains t3 "T_skew");
  (* baseline rows carry zero deltas *)
  Alcotest.(check bool) "t2 baseline 0.00" true (Astring_contains.contains t2 "0.00")

let test_determinism_of_flow () =
  let run () =
    let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
    let r = Helpers.run_flow ~options:(tiny_options ~tp:2.0 ~atpg:false) d in
    match r.P.sta.Sta.Analysis.worst with Some p -> p.Sta.Analysis.t_cp | None -> 0.0
  in
  Helpers.check_approx "same t_cp twice" (run ()) (run ())

(* ---- -j N: whole layouts on worker domains, byte-identical to -j 1 ----
   The tamper decides by the level's own options, never by state shared
   across levels, so it behaves the same whichever domain runs it. *)
let test_sweep_fanout_identical () =
  let module G = Flow.Guard in
  let module E = Flow.Experiment in
  let spec = E.spec_for ~scale:0.04 "s38417" in
  let tamper ~attempt:_ stage (st : P.state) =
    if stage = G.Placement && st.P.s_options.P.tp_percent = 2.0 then
      failwith "injected placement crash"
  in
  let run ?tamper ?policy ?repair ~tables jobs =
    Obs.Metrics.reset ();
    let grows =
      E.sweep ~jobs ?tamper ?policy ~retries:1 ?repair ~with_atpg:false
        ~tp_levels:[ 0; 1; 2; 3; 4 ] spec
    in
    ( List.map (fun g -> (g.E.g_tp_pct, g.E.g_report.G.result <> None)) grows,
      Flow.Report.render ~tables grows,
      Obs.Json.to_string (Obs.Metrics.snapshot ()) )
  in
  (* the -j 1 rows, once -j 2 and -j 4 are checked against them *)
  let same what sweep =
    let rows, out, metrics = sweep 1 in
    List.iter
      (fun jobs ->
        let rows', out', metrics' = sweep jobs in
        let label s = Printf.sprintf "%s: %s j1 = j%d" what s jobs in
        Alcotest.(check (list (pair int bool))) (label "rows") rows rows';
        Alcotest.(check string) (label "output") out out';
        Alcotest.(check string) (label "metrics") metrics metrics')
      [ 2; 4 ];
    rows
  in
  let all_ok = List.map (fun l -> (l, true)) [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (list (pair int bool))) "repair: every level completes" all_ok
    (same "repair" (run ~repair:true ~tables:[ 2; 3 ]));
  Alcotest.(check (list (pair int bool))) "fail-fast: stops at the failed level"
    [ (0, true); (1, true); (2, false) ]
    (same "fail-fast" (run ~tamper ~tables:[ 2; 3 ]));
  Alcotest.(check (list (pair int bool))) "recover: the degraded row stays in place"
    [ (0, true); (1, true); (2, false); (3, true); (4, true) ]
    (same "recover" (run ~tamper ~policy:G.Recover ~tables:[ 2; 3 ]))

let suite =
  [ Alcotest.test_case "pipeline consistency" `Slow test_pipeline_consistency;
    Alcotest.test_case "pipeline without atpg" `Quick test_pipeline_no_atpg_faster_path;
    Alcotest.test_case "area grows with tp" `Quick test_area_grows_with_tp;
    Alcotest.test_case "experiment specs" `Quick test_experiment_specs;
    Alcotest.test_case "tables render" `Slow test_tables_render;
    Alcotest.test_case "flow determinism" `Quick test_determinism_of_flow;
    Alcotest.test_case "tables+metrics byte-identical j1/j2/j4" `Slow
      test_sweep_fanout_identical ]
