(* flow.Repair: post-route WNS/TNS-driven ECO repair, its exactness
   contract against a fresh analysis of the repaired layout, and the
   section 5 area-for-delay trade *)
module Design = Netlist.Design
module Cell = Stdcell.Cell
module A = Sta.Analysis
module T = Sta.Tgraph
module R = Flow.Repair

let bits = Int64.bits_of_float

let check_floats_bitwise msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s: index %d: %h <> %h" msg i x b.(i))
    a

let check_analysis_equal msg (x : A.t) (y : A.t) =
  check_floats_bitwise (msg ^ " arrival") x.A.arrival y.A.arrival;
  check_floats_bitwise (msg ^ " slew") x.A.slew y.A.slew;
  Alcotest.(check bool) (msg ^ " per_domain") true (x.A.per_domain = y.A.per_domain);
  Alcotest.(check bool) (msg ^ " worst") true (x.A.worst = y.A.worst)

(* a placed+TPI'd design fresh out of the pipeline; rebuilt identically on
   every call so each test can mutate its own copy *)
let placed ?(seed = 9) ?(ffs = 50) ?(gates = 500) ?(tp_percent = 2.0) () =
  let d = Circuits.Bench.tiny ~seed ~ffs ~gates () in
  let options =
    { Flow.Pipeline.default_options with
      Flow.Pipeline.tp_percent;
      run_atpg = false }
  in
  let r = Helpers.run_flow ~options d in
  (r.Flow.Pipeline.placement, r.Flow.Pipeline.route, r.Flow.Pipeline.rc)

let test_repair_improves () =
  let pl, rt, rc = placed () in
  let rep = R.run ~route:rt ~rc pl in
  Alcotest.(check bool) "tried some ECOs" true (rep.R.tried > 0);
  Alcotest.(check bool) "wns never degrades" true (rep.R.wns_after >= rep.R.wns_before);
  Alcotest.(check bool) "t_cp never degrades" true
    (rep.R.t_cp_after <= rep.R.t_cp_before);
  Alcotest.(check int) "accepted = sum of kinds" rep.R.accepted
    (rep.R.buffers_inserted + rep.R.upsized + rep.R.downsized + rep.R.swapped);
  Alcotest.(check int) "one edit record per trial" rep.R.tried
    (List.length rep.R.edits);
  Alcotest.(check int) "accepted edit records" rep.R.accepted
    (List.length (List.filter (fun (e : R.eco) -> e.R.accepted) rep.R.edits))

(* the report must describe the design actually left behind: re-route,
   re-extract and re-analyse the mutated placement from scratch and compare.
   This is what pins the exact-revert discipline — one leaky rejected trial
   and the fresh analysis walks a different design. *)
let test_repair_state_coherent () =
  let pl, rt, rc = placed ~seed:13 () in
  let rep = R.run ~route:rt ~rc pl in
  let rt' = Layout.Route.run pl in
  let rc' = Layout.Extract.run pl rt' in
  let fresh = Sta_reference.run pl rc' in
  check_analysis_equal "report sta vs fresh analysis" fresh rep.R.sta;
  Alcotest.(check bool) "t_cp_after is the fresh worst" true
    (match fresh.A.worst with
     | Some p -> bits p.A.t_cp = bits rep.R.t_cp_after
     | None -> false);
  Alcotest.(check bool) "route wirelength" true
    (bits rt'.Layout.Route.total_wirelength
    = bits rep.R.route.Layout.Route.total_wirelength);
  Alcotest.(check bool) "reported area is live area" true
    (bits rep.R.cell_area_after
    = bits (Netlist.Stats.compute pl.Layout.Place.design).Netlist.Stats.cell_area)

(* a rejected buffer trial adds a net and takes it back: the report
   still holds one route and one parasitics entry per net *)
let test_repair_report_per_net () =
  let pl, rt, rc = placed ~seed:13 () in
  let rep = R.run ~route:rt ~rc pl in
  Alcotest.(check bool) "a buffer trial was rejected" true
    (List.exists (fun (e : R.eco) -> e.R.kind = R.Insert_buffer && not e.R.accepted)
       rep.R.edits);
  let nn = Design.num_nets pl.Layout.Place.design in
  Alcotest.(check int) "rc entries" nn (Array.length rep.R.rc);
  Alcotest.(check int) "route slots" nn (Array.length rep.R.route.Layout.Route.routes)

let test_repair_pre_sta_is_unrepaired () =
  (* pre_sta must be byte-identical to the STA an unrepaired flow reports —
     the contract that lets one repaired sweep fill both Table 3 columns *)
  let _, _, rc0 = placed ~seed:29 () in
  let pl, rt, rc = placed ~seed:29 () in
  let unrepaired = Sta_reference.run pl rc0 in
  let rep = R.run ~route:rt ~rc pl in
  check_analysis_equal "pre_sta vs unrepaired flow" unrepaired rep.R.pre_sta

(* regression for the stale-level rebirth bug: a rejected buffer (a trial
   rolled back, as repair rejects one) frees the newest instance slot and
   the next buffer reuses it. Its true level sits
   at or below the dead occupant's, so the raise-only releveler used to
   leave [order_valid] standing — and a whole-graph propagate replayed an
   order without the reborn cell, leaving its output net at the -inf
   seed. Both the cone-retimed state and a propagate on the synced graph
   must equal the reference analysis of the freshly routed design. *)
let test_slot_rebirth () =
  let pl, rt, rc = placed ~seed:9 () in
  let ctx = Flow.Retime.create pl rt rc in
  let d = Flow.Retime.design ctx in
  let tg = Flow.Retime.tgraph ctx in
  (* deepest and shallowest cell-driven nets with sinks, by driver level *)
  let deep = ref (-1) and shallow = ref (-1) in
  let level = Array.make (Design.num_nets d) 0 in
  for nid = 0 to Design.num_nets d - 1 do
    let n = Design.net d nid in
    match n.Design.driver with
    | Design.Cell_pin (drv, _) when n.Design.sinks <> [] ->
      level.(nid) <- T.level tg drv;
      if !deep < 0 || level.(nid) > level.(!deep) then deep := nid;
      if !shallow < 0 || level.(nid) < level.(!shallow) then shallow := nid
    | _ -> ()
  done;
  Alcotest.(check bool) "level gap" true (level.(!deep) > level.(!shallow));
  Flow.Retime.open_trial ctx;
  let b1, _ = Flow.Retime.insert_buffer ctx ~net:!deep in
  Flow.Retime.rollback ctx;
  (* a whole-graph propagate here rebuilds the evaluation order without
     the dead buffer, the order the next insert must not inherit *)
  T.propagate tg;
  let b2, _ = Flow.Retime.insert_buffer ctx ~net:!shallow in
  Alcotest.(check int) "buffer reused the freed slot" b1.Design.id b2.Design.id;
  let rt' = Layout.Route.run pl in
  let reference = Sta_reference.run pl (Layout.Extract.run pl rt') in
  let retimed = Flow.Retime.analysis ctx in
  check_analysis_equal "cone retime after rebirth" reference retimed;
  T.propagate tg;
  let out = (Design.inst d b2.Design.id).Design.conns.(1) in
  Alcotest.(check bool) "reborn buffer was propagated" true (T.arrival tg out > neg_infinity);
  check_analysis_equal "propagate after rebirth" reference (T.analysis tg)

(* section 5: timing optimisation buys delay with drive strength. The
   area-recovery pass gives some of it back off the critical paths, but
   on this layout (seed 9: 5 upsizes, 5 downsizes) the faster result
   still costs cell area *)
let test_repair_trades_area_for_delay () =
  let pl, rt, rc = placed ~seed:9 ~tp_percent:0.0 () in
  let rep = R.run ~route:rt ~rc pl in
  Alcotest.(check bool) "upsized or buffered" true
    (rep.R.upsized + rep.R.buffers_inserted > 0);
  Alcotest.(check bool) "delay improves" true (rep.R.t_cp_after < rep.R.t_cp_before);
  Alcotest.(check bool) "area grows" true (rep.R.cell_area_after > rep.R.cell_area_before);
  Netlist.Check.assert_clean pl.Layout.Place.design

(* ---- typed generator/parser errors (the retired assert-false paths) ---- *)

let test_typed_circuit_errors () =
  (* a degenerate gate line surfaces as Parse_error, not an assert *)
  Alcotest.(check bool) "empty operand list" true
    (try
       ignore (Circuits.Iscas.parse "INPUT(a)\nOUTPUT(y)\ny = AND()\n");
       false
     with Circuits.Iscas.Parse_error _ -> true);
  (* inconsistent profiles fail validation up front... *)
  let bad = { Circuits.Bench.s38417_profile with Circuits.Profile.num_pis = 0 } in
  Alcotest.(check bool) "invalid profile" true
    (try Circuits.Profile.validate bad; false with Invalid_argument _ -> true);
  (* ...while mid-generation invariants have their own typed exception *)
  Alcotest.(check bool) "generation error carries its message" true
    (try raise (Circuits.Synth.Generation_error "invariant")
     with Circuits.Synth.Generation_error m -> m = "invariant")

(* ---- QCheck: repair never loses timing at any TP density ---- *)

let prop_repaired_never_worse =
  QCheck.Test.make ~name:"repaired T_cp <= unrepaired at any TP level" ~count:4
    QCheck.(pair (int_range 1 1000) (int_range 0 8))
    (fun (seed, tp) ->
      let pl, rt, rc = placed ~seed ~tp_percent:(float_of_int tp) () in
      let rep = R.run ~route:rt ~rc pl in
      rep.R.t_cp_after <= rep.R.t_cp_before
      && rep.R.wns_after >= rep.R.wns_before)

let suite =
  [ Alcotest.test_case "repair improves" `Slow test_repair_improves;
    Alcotest.test_case "repair leaves coherent state" `Slow
      test_repair_state_coherent;
    Alcotest.test_case "repair report has one entry per net" `Slow
      test_repair_report_per_net;
    Alcotest.test_case "pre_sta = unrepaired flow" `Slow
      test_repair_pre_sta_is_unrepaired;
    Alcotest.test_case "full-STA slot rebirth" `Slow test_slot_rebirth;
    Alcotest.test_case "area-for-delay" `Slow test_repair_trades_area_for_delay;
    Alcotest.test_case "typed circuit errors" `Quick test_typed_circuit_errors;
    QCheck_alcotest.to_alcotest prop_repaired_never_worse ]
