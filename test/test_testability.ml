(* testability: SCOAP, COP, regions, TC *)
module Design = Netlist.Design
module Cell = Stdcell.Cell

(* and2 of two inputs feeding a captured FF: textbook SCOAP/COP values *)
let and_design () =
  let d = Design.create "and2" in
  let clk = Design.add_port d "clk" Design.In in
  let dom = Design.add_domain d ~name:"clk" ~period_ps:1000.0 ~clock_net:clk.Design.pnet in
  let a = Design.add_port d "a" Design.In in
  let b = Design.add_port d "b" Design.In in
  let g = Design.add_instance d ~name:"g" ~cell:(Helpers.cell Cell.And2) in
  let ff = Design.add_instance d ~name:"ff" ~cell:(Helpers.cell Cell.Dff) in
  ff.Design.domain <- dom;
  let y = Design.add_net d "y" in
  let q = Design.add_net d "q" in
  let po = Design.add_port d "po" Design.Out in
  Design.connect d ~inst:g.Design.id ~pin:0 ~net:a.Design.pnet;
  Design.connect d ~inst:g.Design.id ~pin:1 ~net:b.Design.pnet;
  Design.connect d ~inst:g.Design.id ~pin:2 ~net:y.Design.nid;
  Design.connect d ~inst:ff.Design.id ~pin:0 ~net:y.Design.nid;
  Design.connect d ~inst:ff.Design.id ~pin:1 ~net:clk.Design.pnet;
  Design.connect d ~inst:ff.Design.id ~pin:2 ~net:q.Design.nid;
  Design.connect_out_port d ~port:po.Design.pid ~net:q.Design.nid;
  (d, a.Design.pnet, b.Design.pnet, y.Design.nid)

let test_scoap_and_gate () =
  let d, a, _, y = and_design () in
  let m = Netlist.Cmodel.build d in
  let s = Testability.Scoap.compute m in
  (* CC1(y) = CC1(a) + CC1(b) + 1 = 3; CC0(y) = min(CC0(a), CC0(b)) + 1 = 2 *)
  Helpers.check_approx "cc1 and" 3.0 s.Testability.Scoap.cc1.(y);
  Helpers.check_approx "cc0 and" 2.0 s.Testability.Scoap.cc0.(y);
  (* CO(a) = CO(y) + CC1(b) + 1 = 0 + 1 + 1 *)
  Helpers.check_approx "co input" 2.0 s.Testability.Scoap.co.(a);
  Helpers.check_approx "co output" 0.0 s.Testability.Scoap.co.(y)

let test_cop_and_gate () =
  let d, a, _, y = and_design () in
  let m = Netlist.Cmodel.build d in
  let c = Testability.Cop.compute m in
  Helpers.check_approx "c(y) = 1/4" 0.25 c.Testability.Cop.c.(y);
  Helpers.check_approx "o(y) = 1" 1.0 c.Testability.Cop.o.(y);
  (* observability of input a = o(y) * P(b = 1) *)
  Helpers.check_approx "o(a) = 1/2" 0.5 c.Testability.Cop.o.(a);
  Helpers.check_approx "detect s-a-0 on y" 0.25 (Testability.Cop.detect_prob0 c y);
  Helpers.check_approx "detect s-a-1 on y" 0.75 (Testability.Cop.detect_prob1 c y)

let test_cop_probability_range () =
  let d = Circuits.Bench.tiny () in
  let m = Netlist.Cmodel.build d in
  let c = Testability.Cop.compute m in
  for n = 0 to m.Netlist.Cmodel.num_nets - 1 do
    if m.Netlist.Cmodel.modeled.(n) then begin
      Alcotest.(check bool) "c in [0,1]" true
        (c.Testability.Cop.c.(n) >= -1e-9 && c.Testability.Cop.c.(n) <= 1.0 +. 1e-9);
      Alcotest.(check bool) "o in [0,1]" true
        (c.Testability.Cop.o.(n) >= -1e-9 && c.Testability.Cop.o.(n) <= 1.0 +. 1e-9)
    end
  done

let test_scoap_monotone_with_depth () =
  let d = Circuits.Bench.tiny () in
  let m = Netlist.Cmodel.build d in
  let s = Testability.Scoap.compute m in
  (* sources have unit controllability *)
  Array.iter
    (fun (n, _) ->
      Helpers.check_approx "source cc0" 1.0 s.Testability.Scoap.cc0.(n);
      Helpers.check_approx "source cc1" 1.0 s.Testability.Scoap.cc1.(n))
    m.Netlist.Cmodel.sources

let test_regions () =
  let d = Circuits.Bench.tiny () in
  let m = Netlist.Cmodel.build d in
  let r = Testability.Regions.compute m in
  let heads = Testability.Regions.heads r in
  Alcotest.(check bool) "has regions" true (List.length heads > 0);
  (* total region gate count equals the model's gate count *)
  let total = List.fold_left (fun acc h -> acc + Testability.Regions.size r h) 0 heads in
  Alcotest.(check int) "regions partition the gates" (Array.length m.Netlist.Cmodel.gates) total

let test_tpi_improves_chosen_nets () =
  let d = Circuits.Bench.tiny ~gates:400 () in
  let rep = Tpi.Select.run d ~count:6 in
  Alcotest.(check bool) "tpi cost recorded" true (rep.Tpi.Select.cost_before > 0.0);
  (* after insertion every chosen net is directly captured (perfect
     observability) and its former sinks are driven by a fresh source *)
  let m1 = Netlist.Cmodel.build d in
  let cop1 = Testability.Cop.compute m1 in
  List.iter
    (fun n -> Helpers.check_approx "chosen net now fully observable" 1.0
        cop1.Testability.Cop.o.(n))
    rep.Tpi.Select.nets_chosen

(* COP's tabulated logic functions: bit [v] of a kind's table is
   [eval64] on input vector [v], for every combinational kind (Clkbuf and
   the tie cells included) and every vector *)
let test_cop_truth_tables () =
  List.iter
    (fun kind ->
      let arity = Cell.num_inputs kind in
      let table = Testability.Cop.truth_table kind in
      for v = 0 to (1 lsl arity) - 1 do
        let words = Array.init arity (fun i -> if v land (1 lsl i) <> 0 then -1L else 0L) in
        Alcotest.(check int)
          (Printf.sprintf "%s vector %d" (Cell.kind_name kind) v)
          (Int64.to_int (Int64.logand (Cell.eval64 kind words) 1L))
          ((table lsr v) land 1)
      done;
      Alcotest.(check int) (Cell.kind_name kind ^ " has no bits past its vectors") 0
        (table lsr (1 lsl arity)))
    Cell.
      [ Inv; Buf; Clkbuf; Nand2; Nand3; Nor2; Nor3; And2; Or2; Xor2; Xnor2; Aoi21; Oai21;
        Mux2; Tiehi; Tielo ];
  Alcotest.(check bool) "sequential kinds are rejected" true
    (try ignore (Testability.Cop.truth_table Cell.Dff); false with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "scoap and-gate" `Quick test_scoap_and_gate;
    Alcotest.test_case "cop and-gate" `Quick test_cop_and_gate;
    Alcotest.test_case "cop ranges" `Quick test_cop_probability_range;
    Alcotest.test_case "cop truth tables" `Quick test_cop_truth_tables;
    Alcotest.test_case "scoap sources" `Quick test_scoap_monotone_with_depth;
    Alcotest.test_case "regions partition" `Quick test_regions;
    Alcotest.test_case "tpi improves chosen nets" `Quick test_tpi_improves_chosen_nets ]
