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

let analysed d =
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  (pl, rc, Sta.Tgraph.run d rc)

let test_slack_consistency () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let pl, rc, sta = analysed d in
  let s = Sta.Slack.report pl rc sta in
  Alcotest.(check int) "one endpoint per ff" 40 (List.length s.Sta.Slack.endpoints);
  (* wns must agree with the critical path: period - t_cp *)
  (match sta.Sta.Analysis.worst with
   | Some p ->
     let period = d.Netlist.Design.domains.(p.Sta.Analysis.domain).Netlist.Design.period_ps in
     Alcotest.(check bool) "wns = period - t_cp (within wire rounding)" true
       (Float.abs (s.Sta.Slack.wns -. (period -. p.Sta.Analysis.t_cp)) < 1.0)
   | None -> Alcotest.fail "no path");
  (* histogram covers all endpoints *)
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Sta.Slack.histogram s ~bucket_ps:500.0) in
  Alcotest.(check int) "histogram complete" (List.length s.Sta.Slack.endpoints) total;
  (* below margin is a prefix of the sorted endpoints *)
  let below = Sta.Slack.below s 1000.0 in
  List.iter
    (fun (e : Sta.Slack.endpoint_slack) ->
      Alcotest.(check bool) "below margin" true (e.Sta.Slack.slack_ps < 1000.0))
    below

let test_blocked_nets_are_avoided () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let pl, _, sta = analysed d in
  let blocked = Sta.Slack.nets_on_worst_paths pl sta ~margin_ps:200.0 in
  Alcotest.(check bool) "some nets near critical" true (List.length blocked > 0);
  (* a fresh identical design: TPI with those nets blocked avoids them *)
  let d2 = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let config = { Tpi.Select.default_config with Tpi.Select.blocked_nets = blocked } in
  let rep = Tpi.Select.run ~config d2 ~count:4 in
  List.iter
    (fun n -> Alcotest.(check bool) "blocked net not chosen" true (not (List.mem n blocked)))
    rep.Tpi.Select.nets_chosen

let suite =
  [ Alcotest.test_case "liberty export" `Quick test_liberty_export;
    Alcotest.test_case "slack consistency" `Quick test_slack_consistency;
    Alcotest.test_case "blocked nets avoided" `Quick test_blocked_nets_are_avoided ]
