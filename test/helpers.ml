(* Shared helpers for the test suites. *)

module Design = Netlist.Design
module Cell = Stdcell.Cell
module Lib = Stdcell.Library

let lib = Lib.default

let cell kind = Lib.min_drive_strength lib kind

(* One X1 inverter driving 150 flip-flops: no DRC fix is applied, so the
   inverter's load lies beyond its NLDM tables and STA flags it slow. The
   inverter drives net "y". *)
let slow_fanout_design () =
  let d = Design.create "slow" in
  let clk = Design.add_port d "clk" Design.In in
  let dom = Design.add_domain d ~name:"clk" ~period_ps:10000.0 ~clock_net:clk.Design.pnet in
  let a = Design.add_port d "a" Design.In in
  let inv = Design.add_instance d ~name:"inv" ~cell:(cell Cell.Inv) in
  let y = Design.add_net d "y" in
  Design.connect d ~inst:inv.Design.id ~pin:0 ~net:a.Design.pnet;
  Design.connect d ~inst:inv.Design.id ~pin:1 ~net:y.Design.nid;
  for k = 0 to 149 do
    let ff = Design.add_instance d ~name:(Printf.sprintf "ff%d" k) ~cell:(cell Cell.Dff) in
    ff.Design.domain <- dom;
    Design.connect d ~inst:ff.Design.id ~pin:0 ~net:y.Design.nid;
    Design.connect d ~inst:ff.Design.id ~pin:1 ~net:clk.Design.pnet;
    let q = Design.add_net d (Printf.sprintf "q%d" k) in
    Design.connect d ~inst:ff.Design.id ~pin:2 ~net:q.Design.nid;
    let po = Design.add_port d (Printf.sprintf "po%d" k) Design.Out in
    Design.connect_out_port d ~port:po.Design.pid ~net:q.Design.nid
  done;
  d

(* A tiny hand-built sequential circuit:

   pi0 --+--[NAND2 g1]--[INV g2]-- n2 --> ff0.D     ff0.Q -- q0 --> po0
   pi1 --+                                                      \--[g1.B]? no

   Layout: pi0,pi1 -> g1(NAND2) -> g2(INV) -> ff0.D; ff0.Q -> po0 and
   feeds g1? keep acyclic: ff0.Q -> po0 only. *)
let mini_design () =
  let d = Design.create "mini" in
  let clk = Design.add_port d "clk" Design.In in
  let dom = Design.add_domain d ~name:"clk" ~period_ps:4000.0 ~clock_net:clk.Design.pnet in
  let pi0 = Design.add_port d "pi0" Design.In in
  let pi1 = Design.add_port d "pi1" Design.In in
  let po0 = Design.add_port d "po0" Design.Out in
  let g1 = Design.add_instance d ~name:"g1" ~cell:(cell Cell.Nand2) in
  let g2 = Design.add_instance d ~name:"g2" ~cell:(cell Cell.Inv) in
  let ff0 = Design.add_instance d ~name:"ff0" ~cell:(cell Cell.Dff) in
  ff0.Design.domain <- dom;
  let n1 = Design.add_net d "n1" in
  let n2 = Design.add_net d "n2" in
  let q0 = Design.add_net d "q0" in
  Design.connect d ~inst:g1.Design.id ~pin:0 ~net:pi0.Design.pnet;
  Design.connect d ~inst:g1.Design.id ~pin:1 ~net:pi1.Design.pnet;
  Design.connect d ~inst:g1.Design.id ~pin:2 ~net:n1.Design.nid;
  Design.connect d ~inst:g2.Design.id ~pin:0 ~net:n1.Design.nid;
  Design.connect d ~inst:g2.Design.id ~pin:1 ~net:n2.Design.nid;
  Design.connect d ~inst:ff0.Design.id ~pin:0 ~net:n2.Design.nid;
  Design.connect d ~inst:ff0.Design.id ~pin:1 ~net:clk.Design.pnet;
  Design.connect d ~inst:ff0.Design.id ~pin:2 ~net:q0.Design.nid;
  Design.connect_out_port d ~port:po0.Design.pid ~net:q0.Design.nid;
  d

let tiny () = Circuits.Bench.tiny ()

let approx ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_approx msg a b = Alcotest.(check bool) msg true (approx ~eps:1e-6 a b)

(* One layout through the guarded flow (the only runner), checks and all;
   a failed stage fails the calling test with the typed stage error. *)
let run_flow ?(circuit = "test") ~options d =
  Flow.Guard.result_exn (Flow.Guard.run ~options ~circuit (fun () -> d))
