(* sta: delay propagation, clock latency, eq-3 decomposition *)
module Design = Netlist.Design
module Cell = Stdcell.Cell
module A = Sta.Analysis

let analysed d =
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  (pl, rc, Sta.Tgraph.run d rc)

let test_mini_path () =
  let d = Helpers.mini_design () in
  let _, rc, sta = analysed d in
  ignore rc;
  match sta.A.worst with
  | None -> Alcotest.fail "expected a critical path"
  | Some p ->
    (* pi -> NAND2 -> INV -> ff.D: two combinational cells (plus the
       input-port step that carries the first wire segment) *)
    let cells = List.filter (fun s -> s.A.st_inst >= 0) p.A.steps in
    Alcotest.(check int) "two cells on path" 2 (List.length cells);
    Alcotest.(check bool) "starts at input" true
      (match p.A.startpoint with A.From_input _ -> true | A.From_ff _ -> false);
    Alcotest.(check bool) "positive delay" true (p.A.t_cp > 0.0);
    (* breakdown identity: eq (3) components sum to the reported T_cp *)
    Helpers.check_approx "eq3 sums up"
      (A.breakdown_total p.A.breakdown /. p.A.t_cp) 1.0

let test_breakdown_identity_tiny () =
  let d = Circuits.Bench.tiny ~ffs:30 ~gates:400 () in
  let _, _, sta = analysed d in
  Array.iter
    (fun path ->
      match path with
      | None -> ()
      | Some (p : A.critical_path) ->
        Alcotest.(check bool) "breakdown sums to t_cp" true
          (Float.abs (A.breakdown_total p.A.breakdown -. p.A.t_cp) < 1.0))
    sta.A.per_domain

let test_tsff_appears_on_path () =
  (* mini design with a TSFF spliced into the only path: the path must
     traverse it and t_cp must grow by at least the TSFF's two-mux delay *)
  let d0 = Helpers.mini_design () in
  let _, _, sta0 = analysed d0 in
  let t0 = (Option.get sta0.A.worst).A.t_cp in
  let d = Helpers.mini_design () in
  let n2 = (Design.inst d 1).Design.conns.(1) in
  ignore (Tpi.Insert.insert_point d ~net:n2 ~index:0);
  let _, _, sta = analysed d in
  let p = Option.get sta.A.worst in
  Alcotest.(check int) "tsff counted" 1 p.A.test_points_on_path;
  Alcotest.(check bool) "delay grew by the transparent path" true
    (p.A.t_cp > t0 +. 100.0)

let test_clock_latency_after_cts () =
  let d = Circuits.Bench.tiny ~ffs:60 ~gates:600 () in
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  ignore (Layout.Cts.run pl);
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  let sta = Sta.Tgraph.run d rc in
  (* all FF clock pins now see a positive latency through the buffer tree *)
  Design.iter_insts d (fun i ->
      if Design.is_ff i then begin
        match Cell.clock_pin i.Design.cell with
        | Some ck ->
          let cknet = i.Design.conns.(ck) in
          Alcotest.(check bool) "positive clock latency" true (sta.A.arrival.(cknet) > 0.0)
        | None -> ()
      end);
  match sta.A.worst with
  | Some p ->
    Alcotest.(check bool) "skew is small relative to t_cp" true
      (Float.abs p.A.breakdown.A.b_skew < 0.25 *. p.A.t_cp)
  | None -> Alcotest.fail "no path"

let test_cross_domain_excluded () =
  let d = Circuits.Bench.pcore_a ~scale:0.04 () in
  let _, _, sta = analysed d in
  Array.iteri
    (fun dom path ->
      match path with
      | None -> ()
      | Some (p : A.critical_path) ->
        Alcotest.(check int) "path stays in its domain" dom p.A.domain;
        (match p.A.startpoint with
         | A.From_ff src ->
           Alcotest.(check int) "launch domain matches" dom (Design.inst d src).Design.domain
         | A.From_input _ -> ()))
    sta.A.per_domain

let test_test_mode_arcs_blocked () =
  (* a TSFF's CK->Q arc is test-only: its Q arrival must come from D, so a
     design whose only TSFF input path is D must still time cleanly *)
  let d = Helpers.mini_design () in
  let n2 = (Design.inst d 1).Design.conns.(1) in
  ignore (Tpi.Insert.insert_point d ~net:n2 ~index:0);
  let _, _, sta = analysed d in
  (* TSFF output net arrival = D-side arrival + transparent delay, which is
     far below any clock-launched value in this tiny design *)
  Alcotest.(check bool) "analysis completes with TSFF" true (sta.A.worst <> None)

let test_worst_tcp_option () =
  (* constrained design: Some of the worst path's t_cp *)
  let _, _, sta = analysed (Helpers.mini_design ()) in
  (match (A.worst_tcp sta, sta.A.worst) with
   | Some t, Some p ->
     Alcotest.(check bool) "some" true
       (Int64.bits_of_float t = Int64.bits_of_float p.A.t_cp)
   | _ -> Alcotest.fail "expected a constrained path");
  (* purely combinational design: no endpoint, no sentinel leaking out *)
  let d = Circuits.Iscas.parse "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n" in
  let _, _, sta = analysed d in
  Alcotest.(check bool) "none on unconstrained design" true (A.worst_tcp sta = None)

(* an inverter chain into a flip-flop, optionally beside a NAND2/INV/INV
   ring fed through a longer inverter chain of its own, so the ring's
   first gate is released to a level above every evaluated one; the ring
   is built last, so the main chain's nets and instances keep their ids
   either way *)
let chain_beside_loop ~loop =
  let d = Design.create "partial" in
  let clk = Design.add_port d "clk" Design.In in
  let a = Design.add_port d "a" Design.In in
  let dom = Design.add_domain d ~name:"core" ~period_ps:400.0 ~clock_net:clk.Design.pnet in
  let gate name kind ins =
    let g = Design.add_instance d ~name ~cell:(Helpers.cell kind) in
    List.iteri (fun pin net -> Design.connect d ~inst:g.Design.id ~pin ~net) ins;
    let y = Design.add_net d (name ^ "_y") in
    Design.connect d ~inst:g.Design.id ~pin:(List.length ins) ~net:y.Design.nid;
    (g.Design.id, y.Design.nid)
  in
  let chain = ref [ a.Design.pnet ] in
  for k = 1 to 6 do
    chain := snd (gate (Printf.sprintf "c%d" k) Cell.Inv [ List.hd !chain ]) :: !chain
  done;
  let ff, q = gate "ff" Cell.Dff [ List.hd !chain; clk.Design.pnet ] in
  (Design.inst d ff).Design.domain <- dom;
  let ring =
    if not loop then []
    else begin
      let b = Design.add_port d "b" Design.In in
      let feed = ref b.Design.pnet in
      for k = 1 to 8 do
        feed := snd (gate (Printf.sprintf "f%d" k) Cell.Inv [ !feed ])
      done;
      let l1 = Design.add_instance d ~name:"l1" ~cell:(Helpers.cell Cell.Nand2) in
      let l1_y = Design.add_net d "l1_y" in
      Design.connect d ~inst:l1.Design.id ~pin:0 ~net:!feed;
      Design.connect d ~inst:l1.Design.id ~pin:2 ~net:l1_y.Design.nid;
      let l2, l2_y = gate "l2" Cell.Inv [ l1_y.Design.nid ] in
      let l3, l3_y = gate "l3" Cell.Inv [ l2_y ] in
      Design.connect d ~inst:l1.Design.id ~pin:1 ~net:l3_y;
      [ l1.Design.id; l2; l3 ]
    end
  in
  (d, q :: !chain, ring)

let zero_rc d = Array.init (Design.num_nets d) (fun nid -> Layout.Extract.empty_rc d (Design.net d nid))

let timed (tg, stuck) =
  Sta.Tgraph.propagate tg;
  Sta.Tgraph.compute_required tg;
  (tg, stuck)

let test_partial_compile () =
  let d, nets, ring = chain_beside_loop ~loop:true in
  let tg, stuck = timed (Sta.Tgraph.compile_partial d (zero_rc d)) in
  Alcotest.(check (list int)) "stuck = the loop" ring stuck;
  List.iter
    (fun iid ->
      let out = Design.net_of_output d (Design.inst d iid) in
      Alcotest.(check bool) "loop cone untimed" true (Sta.Tgraph.arrival tg out = neg_infinity))
    ring;
  let d0, nets0, _ = chain_beside_loop ~loop:false in
  Alcotest.(check (list int)) "same chain nets" nets0 nets;
  let tg0, stuck0 = timed (Sta.Tgraph.compile_partial d0 (zero_rc d0)) in
  Alcotest.(check (list int)) "loop-free: nothing stuck" [] stuck0;
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun nid ->
      Alcotest.(check int64) "arrival" (bits (Sta.Tgraph.arrival tg0 nid))
        (bits (Sta.Tgraph.arrival tg nid));
      Alcotest.(check (option int64)) "slack"
        (Option.map bits (Sta.Tgraph.net_slack tg0 nid))
        (Option.map bits (Sta.Tgraph.net_slack tg nid)))
    nets;
  Alcotest.(check bool) "chain timed" true
    (Sta.Tgraph.net_slack tg (List.hd (List.tl nets)) <> None);
  match Sta.Tgraph.compile d (zero_rc d) with
  | _ -> Alcotest.fail "compile accepted a loop"
  | exception A.Combinational_cycle { inst; iname } ->
    Alcotest.(check int) "names the first stuck instance" (List.hd ring) inst;
    Alcotest.(check string) "by name" "l1" iname

let suite =
  [ Alcotest.test_case "mini path" `Quick test_mini_path;
    Alcotest.test_case "breakdown identity" `Quick test_breakdown_identity_tiny;
    Alcotest.test_case "tsff on path" `Quick test_tsff_appears_on_path;
    Alcotest.test_case "clock latency" `Quick test_clock_latency_after_cts;
    Alcotest.test_case "cross-domain excluded" `Quick test_cross_domain_excluded;
    Alcotest.test_case "test arcs blocked" `Quick test_test_mode_arcs_blocked;
    Alcotest.test_case "worst_tcp option" `Quick test_worst_tcp_option;
    Alcotest.test_case "partial compile around a loop" `Quick test_partial_compile ]
