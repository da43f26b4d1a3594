(* netlist: design, levelize, check, stats, cmodel, verilog *)
module Design = Netlist.Design
module Cell = Stdcell.Cell

let test_mini_construction () =
  let d = Helpers.mini_design () in
  Alcotest.(check int) "insts" 3 (Design.num_insts d);
  Netlist.Check.assert_clean d;
  let stats = Netlist.Stats.compute d in
  Alcotest.(check int) "cells" 3 stats.Netlist.Stats.cells;
  Alcotest.(check int) "ffs" 1 stats.Netlist.Stats.ffs;
  Alcotest.(check int) "depth" 2 stats.Netlist.Stats.logic_depth

let test_double_driver_rejected () =
  let d = Design.create "bad" in
  let a = Design.add_instance d ~name:"a" ~cell:(Helpers.cell Cell.Inv) in
  let b = Design.add_instance d ~name:"b" ~cell:(Helpers.cell Cell.Inv) in
  let n = Design.add_net d "n" in
  Design.connect d ~inst:a.Design.id ~pin:1 ~net:n.Design.nid;
  Alcotest.(check bool) "raises" true
    (try
       Design.connect d ~inst:b.Design.id ~pin:1 ~net:n.Design.nid;
       false
     with Invalid_argument _ -> true)

let test_disconnect_restores () =
  let d = Helpers.mini_design () in
  let g1 = Design.inst d 0 in
  let n = g1.Design.conns.(0) in
  Design.disconnect d ~inst:g1.Design.id ~pin:0;
  Alcotest.(check int) "pin cleared" (-1) g1.Design.conns.(0);
  Alcotest.(check bool) "sink removed" true
    (not (List.mem (g1.Design.id, 0) (Design.net d n).Design.sinks));
  Design.connect d ~inst:g1.Design.id ~pin:0 ~net:n;
  Netlist.Check.assert_clean d

let test_split_net () =
  let d = Helpers.mini_design () in
  (* split n1 (driven by g1, feeding g2) *)
  let n1 = (Design.inst d 0).Design.conns.(2) in
  let before_sinks = (Design.net d n1).Design.sinks in
  let fresh = Design.split_net d ~net:n1 ~name:"n1_tp" in
  Alcotest.(check bool) "old net keeps driver" true ((Design.net d n1).Design.driver <> Design.No_driver);
  Alcotest.(check (list (pair int int))) "sinks moved" before_sinks fresh.Design.sinks;
  Alcotest.(check (list (pair int int))) "old empty" [] (Design.net d n1).Design.sinks

let test_replace_cell () =
  let d = Helpers.mini_design () in
  let ff = Design.inst d 2 in
  let sdff = Helpers.cell Cell.Sdff in
  Design.replace_cell d ~inst:ff.Design.id ~cell:sdff ~pin_map:[ (0, 0); (1, 3); (2, 4) ];
  Alcotest.(check string) "kind swapped" "SDFF" (Cell.kind_name ff.Design.cell.Cell.kind);
  Alcotest.(check bool) "D preserved" true (ff.Design.conns.(0) >= 0);
  Alcotest.(check bool) "CK preserved" true (ff.Design.conns.(3) >= 0);
  Alcotest.(check bool) "Q preserved" true (ff.Design.conns.(4) >= 0);
  Alcotest.(check int) "TI open" (-1) ff.Design.conns.(1)

let test_levelize_order () =
  let d = Circuits.Bench.tiny () in
  let lv = Netlist.Levelize.compute d in
  Alcotest.(check bool) "has depth" true (Netlist.Levelize.depth lv > 0);
  (* every combinational gate's level exceeds all its input net levels *)
  Array.iter
    (fun iid ->
      let i = Design.inst d iid in
      Array.iteri
        (fun pin nid ->
          if nid >= 0 && Stdcell.Pin.is_input i.Design.cell.Cell.pins.(pin) then
            Alcotest.(check bool) "level ordering" true
              (lv.Netlist.Levelize.level_of_inst.(iid)
               > lv.Netlist.Levelize.level_of_net.(nid) - 1))
        i.Design.conns)
    lv.Netlist.Levelize.order

let test_levelize_detects_cycle () =
  let d = Design.create "loop" in
  let a = Design.add_instance d ~name:"a" ~cell:(Helpers.cell Cell.Inv) in
  let b = Design.add_instance d ~name:"b" ~cell:(Helpers.cell Cell.Inv) in
  let n1 = Design.add_net d "n1" and n2 = Design.add_net d "n2" in
  Design.connect d ~inst:a.Design.id ~pin:0 ~net:n2.Design.nid;
  Design.connect d ~inst:a.Design.id ~pin:1 ~net:n1.Design.nid;
  Design.connect d ~inst:b.Design.id ~pin:0 ~net:n1.Design.nid;
  Design.connect d ~inst:b.Design.id ~pin:1 ~net:n2.Design.nid;
  Alcotest.(check bool) "cycle detected" true
    (try
       ignore (Netlist.Levelize.compute d);
       false
     with Netlist.Levelize.Combinational_loop _ -> true)

let test_check_flags_floating () =
  let d = Design.create "float" in
  let a = Design.add_instance d ~name:"a" ~cell:(Helpers.cell Cell.Nand2) in
  let n = Design.add_net d "n" in
  Design.connect d ~inst:a.Design.id ~pin:2 ~net:n.Design.nid;
  let vs = Netlist.Check.run d in
  Alcotest.(check bool) "floating inputs reported" true
    (List.exists (function Netlist.Check.Floating_input _ -> true | _ -> false) vs)

let test_verilog_roundtrip_mini () =
  let d = Helpers.mini_design () in
  let s = Netlist.Verilog.to_string d in
  let d' = Netlist.Verilog.parse s in
  Netlist.Check.assert_clean d';
  Alcotest.(check int) "insts" (Design.num_insts d) (Design.num_insts d');
  Alcotest.(check int) "domains" 1 (Array.length d'.Design.domains);
  let s' = Netlist.Verilog.to_string d' in
  Alcotest.(check string) "stable fixpoint" s s'

let test_verilog_roundtrip_tiny () =
  let d = Circuits.Bench.tiny () in
  let d' = Netlist.Verilog.parse (Netlist.Verilog.to_string d) in
  Netlist.Check.assert_clean d';
  let s1 = Netlist.Stats.compute d and s2 = Netlist.Stats.compute d' in
  Alcotest.(check int) "cells survive" s1.Netlist.Stats.cells s2.Netlist.Stats.cells;
  Alcotest.(check int) "ffs survive" s1.Netlist.Stats.ffs s2.Netlist.Stats.ffs

let test_verilog_parse_error () =
  Alcotest.(check bool) "unknown cell rejected" true
    (try
       ignore (Netlist.Verilog.parse "module m (a); input a; BOGUS u (.A(a)); endmodule");
       false
     with Netlist.Verilog.Parse_error _ -> true)

(* Design.connect's Invalid_argument surfaces as the reader's typed
   error, on the line of the offending instance *)
let parse_error_line src =
  match Netlist.Verilog.parse src with
  | _ -> Alcotest.fail "malformed netlist accepted"
  | exception Netlist.Verilog.Parse_error (line, _) -> line

let test_verilog_double_driven () =
  Alcotest.(check int) "line of the second driver" 6
    (parse_error_line
       "module m (a, b);\ninput a;\ninput b;\nwire n1;\n\
        INVX1 g1 (.A(a), .Y(n1));\nINVX1 g2 (.A(b), .Y(n1));\nendmodule\n")

let test_verilog_pin_twice () =
  Alcotest.(check int) "line of the instance" 4
    (parse_error_line
       "module m (a, b);\ninput a;\ninput b;\nINVX1 g1 (.A(a), .A(b));\nendmodule\n")

let test_cmodel_structure () =
  let d = Circuits.Bench.tiny () in
  let m = Netlist.Cmodel.build d in
  (* sources = PIs (minus clock) + FF outputs *)
  let stats = Netlist.Stats.compute d in
  Alcotest.(check bool) "sources include ffs" true
    (Array.length m.Netlist.Cmodel.sources >= stats.Netlist.Stats.ffs);
  (* every gate's inputs precede it (levels ascend along the array) *)
  Array.iter
    (fun (g : Netlist.Cmodel.gate) ->
      Array.iter
        (fun inn ->
          let gi = m.Netlist.Cmodel.driver_gate.(inn) in
          if gi >= 0 then
            Alcotest.(check bool) "topological" true
              (m.Netlist.Cmodel.gates.(gi).Netlist.Cmodel.g_level < g.Netlist.Cmodel.g_level
               || m.Netlist.Cmodel.gates.(gi).Netlist.Cmodel.g_level + 1
                  = g.Netlist.Cmodel.g_level))
        g.Netlist.Cmodel.g_ins)
    m.Netlist.Cmodel.gates;
  (* observed nets are exactly PO bindings and FF D nets *)
  Array.iter
    (fun (n, _) -> Alcotest.(check bool) "observe marked" true m.Netlist.Cmodel.is_observed.(n))
    m.Netlist.Cmodel.observes

let test_check_failed_typed () =
  let d = Helpers.mini_design () in
  (* 25 disconnected inverters: each adds a floating input and a dangling
     output, taking the violation list well past the 20-entry report cap *)
  for k = 0 to 24 do
    ignore
      (Design.add_instance d ~name:(Printf.sprintf "u%d" k) ~cell:(Helpers.cell Cell.Inv))
  done;
  match Netlist.Check.assert_clean d with
  | () -> Alcotest.fail "expected Check_failed"
  | exception Netlist.Check.Check_failed vs ->
    Alcotest.(check int) "exception carries every violation" 50 (List.length vs);
    let printed = Printexc.to_string (Netlist.Check.Check_failed vs) in
    Alcotest.(check bool) "printer tallies the classes" true
      (Astring_contains.contains printed "50 violation(s)");
    Alcotest.(check bool) "printer names the classes" true
      (Astring_contains.contains printed "floating-input x25");
    let r = Netlist.Check.report d vs in
    Alcotest.(check bool) "report states the total" true
      (Astring_contains.contains r "50 check violations");
    Alcotest.(check bool) "report flags the truncation" true
      (Astring_contains.contains r "... and 30 more");
    let rendered =
      List.length
        (List.filter
           (fun l -> Astring_contains.contains l "of u")
           (String.split_on_char '\n' r))
    in
    Alcotest.(check int) "only the cap is rendered" 20 rendered

let test_report_short_list_untruncated () =
  let d = Helpers.mini_design () in
  let g2 = Design.inst d 1 in
  (* unhooking g2's input floats that pin and leaves g1's output sinkless *)
  Design.disconnect d ~inst:g2.Design.id ~pin:0;
  let vs = Netlist.Check.run d in
  Alcotest.(check int) "two violations" 2 (List.length vs);
  let r = Netlist.Check.report d vs in
  Alcotest.(check bool) "no truncation line" true
    (not (Astring_contains.contains r "more"))

(* a sink entry moved to the wrong net's list, and a net whose driver names
   the wrong pin: exactly those two pins are inconsistent, in instance and
   pin order *)
let test_check_inconsistent_conn () =
  let d = Circuits.Bench.tiny ~seed:1 ~ffs:30 ~gates:250 () in
  Netlist.Check.assert_clean d;
  let gate_out kind_ok =
    let found = ref None in
    Design.iter_insts d (fun i ->
        if !found = None && kind_ok i.Design.cell.Cell.kind then begin
          let out = Array.length i.Design.conns - 1 in
          let nid = i.Design.conns.(out) in
          if nid >= 0 && (Design.net d nid).Design.sinks <> [] then found := Some (i, out, nid)
        end);
    Option.get !found
  in
  let _, _, n1 = gate_out (fun k -> k = Cell.Nand2) in
  let g2, out2, n2 = gate_out (fun k -> k = Cell.Nor2) in
  let net1 = Design.net d n1 and net2 = Design.net d n2 in
  (* sink side: the first sink of the first NAND2's output net is listed
     by the first NOR2's output net instead *)
  let sink_inst, sink_pin = List.hd net1.Design.sinks in
  net1.Design.sinks <- List.tl net1.Design.sinks;
  net2.Design.sinks <- (sink_inst, sink_pin) :: net2.Design.sinks;
  (* driver side: that NOR2 output net names the gate's first input pin *)
  net2.Design.driver <- Design.Cell_pin (g2.Design.id, 0);
  let expected =
    List.sort compare
      [ Netlist.Check.Inconsistent_conn (sink_inst, sink_pin);
        Netlist.Check.Inconsistent_conn (g2.Design.id, out2) ]
  in
  Alcotest.(check bool) "two distinct pins" true (List.length (List.sort_uniq compare expected) = 2);
  Alcotest.(check bool) "exactly the two corrupted pins" true (Netlist.Check.run d = expected)

let suite =
  [ Alcotest.test_case "mini construction" `Quick test_mini_construction;
    Alcotest.test_case "double driver" `Quick test_double_driver_rejected;
    Alcotest.test_case "disconnect" `Quick test_disconnect_restores;
    Alcotest.test_case "split net" `Quick test_split_net;
    Alcotest.test_case "replace cell" `Quick test_replace_cell;
    Alcotest.test_case "levelize order" `Quick test_levelize_order;
    Alcotest.test_case "levelize cycle" `Quick test_levelize_detects_cycle;
    Alcotest.test_case "check floating" `Quick test_check_flags_floating;
    Alcotest.test_case "verilog mini roundtrip" `Quick test_verilog_roundtrip_mini;
    Alcotest.test_case "verilog tiny roundtrip" `Quick test_verilog_roundtrip_tiny;
    Alcotest.test_case "verilog parse error" `Quick test_verilog_parse_error;
    Alcotest.test_case "verilog double-driven net" `Quick test_verilog_double_driven;
    Alcotest.test_case "verilog pin connected twice" `Quick test_verilog_pin_twice;
    Alcotest.test_case "cmodel structure" `Quick test_cmodel_structure;
    Alcotest.test_case "check-failed typed" `Quick test_check_failed_typed;
    Alcotest.test_case "report untruncated" `Quick test_report_short_list_untruncated;
    Alcotest.test_case "check inconsistent conn" `Quick test_check_inconsistent_conn ]
