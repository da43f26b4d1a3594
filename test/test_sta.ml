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

let suite =
  [ Alcotest.test_case "mini path" `Quick test_mini_path;
    Alcotest.test_case "breakdown identity" `Quick test_breakdown_identity_tiny;
    Alcotest.test_case "tsff on path" `Quick test_tsff_appears_on_path;
    Alcotest.test_case "clock latency" `Quick test_clock_latency_after_cts;
    Alcotest.test_case "cross-domain excluded" `Quick test_cross_domain_excluded;
    Alcotest.test_case "test arcs blocked" `Quick test_test_mode_arcs_blocked;
    Alcotest.test_case "worst_tcp option" `Quick test_worst_tcp_option ]
