(* Additional edge-case coverage across modules. *)
module Design = Netlist.Design
module Cell = Stdcell.Cell

let test_split_net_moves_port () =
  let d = Helpers.mini_design () in
  (* q0 drives po0; splitting q0 must carry the port binding along *)
  let ff = Design.inst d 2 in
  let q0 = Design.net_of_output d ff in
  let fresh = Design.split_net d ~net:q0 ~name:"q0_tp" in
  let po = Option.get (Design.find_port d "po0") in
  Alcotest.(check int) "port follows sinks" fresh.Design.nid po.Design.pnet;
  Alcotest.(check int) "old net unbound" (-1) (Design.net d q0).Design.out_port

let test_eco_overfill_fallback () =
  (* a pathologically full floorplan still accepts ECO cells (overfilling
     the freest row rather than failing) *)
  let d = Circuits.Bench.tiny ~ffs:16 ~gates:150 () in
  let fp = Layout.Floorplan.create ~utilization:0.999 d in
  let pl = Layout.Place.run d fp in
  let b = Design.add_instance d ~name:"eco" ~cell:(Helpers.cell Cell.Clkbuf) in
  Layout.Eco.add_cell pl ~inst:b.Design.id ~near:(Geom.Rect.center fp.Layout.Floorplan.core);
  Alcotest.(check bool) "placed anyway" true (Layout.Place.is_placed pl b.Design.id)

let test_route_congestion_fields () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let rt = Layout.Route.run ~gcell_um:10.0 ~capacity:4 pl in
  let total_usage =
    Array.fold_left
      (fun acc row -> Array.fold_left ( + ) acc row)
      0 rt.Layout.Route.usage_h
  in
  Alcotest.(check bool) "usage recorded" true (total_usage > 0);
  Alcotest.(check bool) "tight capacity overflows somewhere" true
    (rt.Layout.Route.overflowed_gcells > 0);
  let loose = Layout.Route.run ~gcell_um:10.0 ~capacity:100000 pl in
  Alcotest.(check int) "loose capacity never overflows" 0 loose.Layout.Route.overflowed_gcells;
  Helpers.check_approx "capacity does not change wirelength"
    rt.Layout.Route.total_wirelength loose.Layout.Route.total_wirelength

let test_generate_under_respects_base () =
  let d = Circuits.Bench.tiny ~ffs:16 ~gates:200 () in
  let m = Netlist.Cmodel.build d in
  let u = Atpg.Fault.build m in
  let podem = Atpg.Podem.create m in
  (* find a fault with a test, then re-generate under its own cube: the
     result must again be a test and must contain the base assignments *)
  let found = ref false in
  Array.iter
    (fun (f : Atpg.Fault.fault) ->
      if not !found then
        match Atpg.Podem.generate podem f with
        | Atpg.Podem.Test cube when cube <> [] ->
          found := true;
          (match Atpg.Podem.generate_under podem ~base:cube f with
           | Atpg.Podem.Test cube' ->
             List.iter
               (fun (s, v) ->
                 Alcotest.(check bool) "base kept" true (List.mem_assoc s cube');
                 Alcotest.(check bool) "base value kept" v (List.assoc s cube'))
               cube
           | _ -> Alcotest.fail "fault untestable under its own cube")
        | _ -> ())
    u.Atpg.Fault.representatives;
  Alcotest.(check bool) "exercised" true !found

let test_conflicting_base_aborts () =
  let d = Circuits.Bench.tiny ~ffs:16 ~gates:200 () in
  let m = Netlist.Cmodel.build d in
  let u = Atpg.Fault.build m in
  let podem = Atpg.Podem.create m in
  (* a base that pins the fault site to its stuck value is unsatisfiable *)
  let f =
    Array.to_list u.Atpg.Fault.representatives
    |> List.find (fun (f : Atpg.Fault.fault) ->
           match f.Atpg.Fault.site with
           | Atpg.Fault.Stem n -> m.Netlist.Cmodel.is_source.(n)
           | _ -> false)
  in
  let site = Atpg.Fault.site_net m f.Atpg.Fault.site in
  let src_index = ref (-1) in
  Array.iteri
    (fun k (n, _) -> if n = site then src_index := k)
    m.Netlist.Cmodel.sources;
  let base = [ (!src_index, f.Atpg.Fault.stuck) ] in
  (match Atpg.Podem.generate_under podem ~base f with
   | Atpg.Podem.Abort -> ()
   | Atpg.Podem.Test _ -> Alcotest.fail "test despite pinned-to-stuck site"
   | Atpg.Podem.Untestable -> Alcotest.fail "generate_under must not claim redundancy")

let test_sta_slow_node_flagging () =
  (* drive an absurd fanout from one X1 inverter and skip the DRC fix:
     the STA must flag the driver as a slow node *)
  let d = Helpers.slow_fanout_design () in
  let fp = Layout.Floorplan.create ~utilization:0.8 d in
  let pl = Layout.Place.run d fp in
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  let sta = Sta.Tgraph.run d rc in
  Alcotest.(check bool) "slow node flagged" true (sta.Sta.Analysis.slow_nodes >= 1)

let test_pipeline_tdv_equations () =
  let d = Circuits.Bench.tiny ~ffs:50 ~gates:600 () in
  let options =
    { Flow.Pipeline.default_options with
      Flow.Pipeline.chain_config = Scan.Chains.Max_length 10 }
  in
  let r = Helpers.run_flow ~options d in
  let p = match r.Flow.Pipeline.atpg with Some o -> Atpg.Patgen.num_patterns o | None -> 0 in
  let n = Scan.Chains.num_chains r.Flow.Pipeline.chains in
  let l = r.Flow.Pipeline.chains.Scan.Chains.lmax in
  Alcotest.(check int) "eq 2" (((l + 1) * p) + l) r.Flow.Pipeline.tat_cycles;
  Alcotest.(check int) "eq 1" (2 * n * r.Flow.Pipeline.tat_cycles) r.Flow.Pipeline.tdv_bits

let suite =
  [ Alcotest.test_case "split net moves port" `Quick test_split_net_moves_port;
    Alcotest.test_case "eco overfill" `Quick test_eco_overfill_fallback;
    Alcotest.test_case "route congestion" `Quick test_route_congestion_fields;
    Alcotest.test_case "generate_under base" `Quick test_generate_under_respects_base;
    Alcotest.test_case "conflicting base" `Quick test_conflicting_base_aborts;
    Alcotest.test_case "sta slow nodes" `Quick test_sta_slow_node_flagging;
    Alcotest.test_case "pipeline tdv equations" `Slow test_pipeline_tdv_equations ]

let test_def_export () =
  let d = Circuits.Bench.tiny ~ffs:16 ~gates:150 () in
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let s = Layout.Defout.to_string pl in
  Alcotest.(check bool) "header" true (Astring_contains.contains s "VERSION 5.8");
  Alcotest.(check bool) "diearea" true (Astring_contains.contains s "DIEAREA");
  Alcotest.(check bool) "components section counts placed cells" true
    (Astring_contains.contains s (Printf.sprintf "COMPONENTS %d ;" (Netlist.Design.num_insts d)));
  Alcotest.(check bool) "nets closed" true (Astring_contains.contains s "END NETS");
  Alcotest.(check bool) "design closed" true (Astring_contains.contains s "END DESIGN")

let suite =
  suite @ [ Alcotest.test_case "def export" `Quick test_def_export ]
