(* liberty export and slack reporting *)
module Lib = Stdcell.Library

let test_liberty_export () =
  let s = Stdcell.Liberty.to_string Lib.default in
  Alcotest.(check bool) "has header" true (Astring_contains.contains s "library (tpi_repro_130)");
  Alcotest.(check bool) "has nand2" true (Astring_contains.contains s "cell (NAND2X1)");
  Alcotest.(check bool) "has tsff" true (Astring_contains.contains s "cell (TSFFX1)");
  Alcotest.(check bool) "has tables" true (Astring_contains.contains s "cell_rise");
  Alcotest.(check bool) "marks test arcs" true
    (Astring_contains.contains s "test-mode only arc");
  Alcotest.(check bool) "substantial" true (String.length s > 20_000)

let timed d =
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let rt = Layout.Route.run pl in
  let tg = Sta.Tgraph.compile d (Layout.Extract.run pl rt) in
  Sta.Tgraph.propagate tg;
  tg

let test_slack_consistency () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let tg = timed d in
  let sta = Sta.Tgraph.analysis tg in
  let s = Sta.Tgraph.slack tg in
  let slacks =
    List.map (fun (e : Sta.Tgraph.endpoint_slack) -> e.Sta.Tgraph.slack_ps) s.Sta.Tgraph.endpoints
  in
  Alcotest.(check int) "one endpoint per ff" 40 (List.length slacks);
  Alcotest.(check bool) "worst first" true (List.sort compare slacks = slacks);
  (* wns must agree with the critical path: period - t_cp *)
  (match sta.Sta.Analysis.worst with
   | Some p ->
     let period = d.Netlist.Design.domains.(p.Sta.Analysis.domain).Netlist.Design.period_ps in
     Alcotest.(check bool) "wns = period - t_cp (within wire rounding)" true
       (Float.abs (s.Sta.Tgraph.wns -. (period -. p.Sta.Analysis.t_cp)) < 1.0)
   | None -> Alcotest.fail "no path");
  (* tns and violations summarise exactly the negative endpoints *)
  let negative = List.filter (fun x -> x < 0.0) slacks in
  Alcotest.(check int) "violations" (List.length negative) s.Sta.Tgraph.violations;
  Alcotest.(check bool) "tns" true
    (Helpers.approx s.Sta.Tgraph.tns (List.fold_left ( +. ) 0.0 negative))

let test_blocked_nets_are_avoided () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let tg = timed d in
  let blocked = Lint.Tpitiming.critical_nets tg (Sta.Tgraph.analysis tg) in
  Alcotest.(check bool) "some nets near critical" true (List.length blocked > 0);
  (* a fresh identical design: TPI with those nets blocked avoids them *)
  let d2 = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let rep = Tpi.Select.run ~blocked_nets:blocked d2 ~count:4 in
  Alcotest.(check bool) "some test points chosen" true (rep.Tpi.Select.nets_chosen <> []);
  List.iter
    (fun n -> Alcotest.(check bool) "blocked net not chosen" true (not (List.mem n blocked)))
    rep.Tpi.Select.nets_chosen

(* the §5 ablation end to end: every test point of the path-excluded run
   lies off the baseline layout's near-critical set *)
let test_ablation_avoids_critical_nets () =
  let module E = Flow.Experiment in
  let module P = Flow.Pipeline in
  let spec = E.spec_for ~scale:0.03 "s38417" in
  let base =
    (E.row_exn (List.hd (E.sweep ~with_atpg:false ~tp_levels:[ 0 ] spec))).E.result
  in
  let tg = Sta.Tgraph.compile base.P.design base.P.rc in
  Sta.Tgraph.propagate tg;
  let critical = Lint.Tpitiming.critical_nets tg base.P.sta in
  Alcotest.(check bool) "baseline has near-critical nets" true (critical <> []);
  let row = E.blocked_critical_nets spec ~tp_pct:2 in
  match row.E.result.P.tpi_report with
  | None -> Alcotest.fail "no TPI report at 2 %"
  | Some rep ->
    Alcotest.(check bool) "test points inserted" true (rep.Tpi.Select.nets_chosen <> []);
    List.iter
      (fun n ->
        if List.mem n critical then Alcotest.failf "net %d is near-critical in the baseline" n)
      rep.Tpi.Select.nets_chosen

let suite =
  [ Alcotest.test_case "liberty export" `Quick test_liberty_export;
    Alcotest.test_case "slack consistency" `Quick test_slack_consistency;
    Alcotest.test_case "blocked nets avoided" `Quick test_blocked_nets_are_avoided;
    Alcotest.test_case "ablation avoids critical nets" `Quick test_ablation_avoids_critical_nets ]
