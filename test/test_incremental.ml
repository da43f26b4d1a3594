(* incremental STA: flat timing graph vs the reference propagator
   (Sta_reference), worklist re-timing after ECO edits, required-time
   patching *)
module Design = Netlist.Design
module Cell = Stdcell.Cell
module A = Sta.Analysis
module T = Sta.Tgraph

let analysed d =
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  (pl, rt, rc)

let bits = Int64.bits_of_float

let check_floats_bitwise msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s: index %d: %h <> %h" msg i x b.(i))
    a

(* full structural equality of two Analysis.t results (paths, breakdowns,
   provenance) plus bitwise equality of the per-net arrays *)
let check_analysis_equal msg (x : A.t) (y : A.t) =
  check_floats_bitwise (msg ^ " arrival") x.A.arrival y.A.arrival;
  check_floats_bitwise (msg ^ " slew") x.A.slew y.A.slew;
  Alcotest.(check int) (msg ^ " slow_nodes") x.A.slow_nodes y.A.slow_nodes;
  Alcotest.(check bool) (msg ^ " per_domain") true (x.A.per_domain = y.A.per_domain);
  Alcotest.(check bool) (msg ^ " worst") true (x.A.worst = y.A.worst)

let check_tgraph_matches msg pl rc =
  let full = Sta_reference.run pl rc in
  let tg = T.compile pl.Layout.Place.design rc in
  T.propagate tg;
  let inc = T.analysis tg in
  check_analysis_equal msg full inc;
  tg

let test_tgraph_mini () =
  let d = Helpers.mini_design () in
  let pl, _, rc = analysed d in
  ignore (check_tgraph_matches "mini" pl rc)

let test_tgraph_tiny () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let pl, _, rc = analysed d in
  ignore (check_tgraph_matches "tiny" pl rc)

let test_tgraph_full_flow () =
  (* post-CTS, post-TPI design straight out of the pipeline: clock trees,
     test points, scan chains, fillers *)
  let d = Circuits.Bench.tiny ~seed:7 ~ffs:60 ~gates:600 () in
  let options = { Flow.Pipeline.default_options with Flow.Pipeline.tp_percent = 3.0 } in
  let r = Helpers.run_flow ~options d in
  let full = Sta_reference.run r.Flow.Pipeline.placement r.Flow.Pipeline.rc in
  check_analysis_equal "pipeline sta stage" full r.Flow.Pipeline.sta;
  let tg = T.compile r.Flow.Pipeline.design r.Flow.Pipeline.rc in
  T.propagate tg;
  check_analysis_equal "pipeline design" full (T.analysis tg)

let test_tgraph_wns_matches_slack_report () =
  let d = Circuits.Bench.tiny ~seed:11 ~ffs:50 ~gates:400 () in
  let pl, _, rc = analysed d in
  let a = Sta_reference.run pl rc in
  let expected = Sta_reference.slack_report pl rc a in
  let tg = T.compile pl.Layout.Place.design rc in
  T.propagate tg;
  let got = T.slack tg in
  Alcotest.(check bool) "wns" true (bits expected.T.wns = bits got.T.wns);
  Alcotest.(check bool) "tns" true (bits expected.T.tns = bits got.T.tns);
  Alcotest.(check bool) "endpoints" true (expected.T.endpoints = got.T.endpoints);
  Alcotest.(check int) "violations" expected.T.violations got.T.violations

let test_required_consistent () =
  (* on every net that has both, slack(net) >= wns of the endpoint report
     (required times are endpoint constraints propagated backward) *)
  let d = Circuits.Bench.tiny ~seed:5 ~ffs:40 ~gates:400 () in
  let pl, _, rc = analysed d in
  let tg = T.compile pl.Layout.Place.design rc in
  T.propagate tg;
  T.compute_required tg;
  let wns = (T.slack tg).T.wns in
  let min_net_slack = ref infinity in
  for nid = 0 to T.num_nets tg - 1 do
    match T.net_slack tg nid with
    | Some s ->
      if s < !min_net_slack then min_net_slack := s;
      if s < wns -. 1e-6 then
        Alcotest.failf "net %d slack %.3f below wns %.3f" nid s wns
    | None -> ()
  done;
  (* the critical endpoint's data net carries exactly the wns *)
  Alcotest.(check bool) "worst net slack = wns" true
    (Float.abs (!min_net_slack -. wns) < 1e-6)

(* a warm propagate boxes no float: NLDM lookups, Elmore reads and
   arrival updates all stay unboxed, so the minor words it allocates
   (span and gauge bookkeeping) stay below one per evaluated arc *)
let test_propagate_allocation_free () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let pl, _, rc = analysed d in
  let tg = T.compile pl.Layout.Place.design rc in
  T.propagate tg;
  let arcs = Obs.Metrics.counter "sta.arcs_evaluated" in
  let a0 = Obs.Metrics.value arcs in
  let w0 = Gc.minor_words () in
  T.propagate tg;
  let words = Gc.minor_words () -. w0 in
  let evaluated = Obs.Metrics.value arcs - a0 in
  Alcotest.(check bool) "arcs evaluated" true (evaluated > 100);
  if words >= float_of_int evaluated then
    Alcotest.failf "propagate allocated %.0f minor words for %d arcs" words evaluated

(* ---- ECO context: every edit must leave the context byte-identical to a
   from-scratch route/extract/analyse of the same mutated design ---- *)

let check_ctx_matches_full msg (ctx : Flow.Retime.t) =
  let pl = Flow.Retime.placement ctx in
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  let full = Sta_reference.run pl rc in
  check_analysis_equal msg full (Flow.Retime.analysis ctx);
  let crc = Flow.Retime.rc ctx in
  Array.iteri
    (fun nid (r : Layout.Extract.net_rc) ->
      let c = crc.(nid) in
      if bits r.Layout.Extract.total_cap_ff <> bits c.Layout.Extract.total_cap_ff
         || r.Layout.Extract.sink_delays <> c.Layout.Extract.sink_delays then
        Alcotest.failf "%s: rc mismatch on net %d" msg nid)
    rc;
  let crt = Flow.Retime.route ctx in
  Alcotest.(check bool) (msg ^ " route total") true
    (bits rt.Layout.Route.total_wirelength = bits crt.Layout.Route.total_wirelength);
  Alcotest.(check int) (msg ^ " overflow") rt.Layout.Route.overflowed_gcells
    crt.Layout.Route.overflowed_gcells

let eco_ctx ?(seed = 9) ?(ffs = 50) ?(gates = 500) ?(tp_percent = 2.0) () =
  let d = Circuits.Bench.tiny ~seed ~ffs ~gates () in
  let options = { Flow.Pipeline.default_options with Flow.Pipeline.tp_percent } in
  let r = Helpers.run_flow ~options d in
  Flow.Retime.create r.Flow.Pipeline.placement r.Flow.Pipeline.route r.Flow.Pipeline.rc

(* a net suitable for tapping: cell-driven, with at least one sink *)
let pick_nets d k =
  let acc = ref [] in
  let nn = Design.num_nets d in
  let step = max 1 (nn / (4 * k)) in
  let i = ref 0 in
  while List.length !acc < k && !i < nn do
    let n = Design.net d !i in
    (match n.Design.driver with
     | Design.Cell_pin (iid, _)
       when n.Design.sinks <> []
            && (Design.inst d iid).Design.cell.Cell.kind <> Cell.Tsff ->
       acc := !i :: !acc
     | _ -> ());
    i := !i + step
  done;
  List.rev !acc

let test_eco_upsize () =
  let ctx = eco_ctx ~seed:13 () in
  let d = Flow.Retime.design ctx in
  (* upsize a few upsizable combinational cells *)
  let done_ = ref 0 in
  let iid = ref 0 in
  while !done_ < 3 && !iid < Design.num_insts d do
    let i = Design.inst d !iid in
    if (not i.Design.cell.Cell.sequential)
       && Stdcell.Library.upsize d.Design.lib i.Design.cell <> None
       && Layout.Place.is_placed (Flow.Retime.placement ctx) !iid
    then begin
      (match Flow.Retime.upsize ctx ~inst:!iid with
       | Some _ -> incr done_
       | None -> ());
      check_ctx_matches_full (Printf.sprintf "upsize eco %d" !done_) ctx
    end;
    iid := !iid + 17
  done;
  Alcotest.(check bool) "upsized some" true (!done_ > 0)

let test_eco_buffer () =
  let ctx = eco_ctx ~seed:21 ~tp_percent:0.0 () in
  let nets = pick_nets (Flow.Retime.design ctx) 2 in
  List.iteri
    (fun k net ->
      let _, stats = Flow.Retime.insert_buffer ctx ~net in
      Alcotest.(check bool) "cone evaluated" true (stats.T.insts_evaluated > 0);
      check_ctx_matches_full (Printf.sprintf "buffer eco %d" k) ctx)
    nets

let test_eco_cone_bounded () =
  (* the re-timed cone after one buffer insert stays well below the design *)
  let ctx = eco_ctx ~seed:17 ~ffs:80 ~gates:1200 () in
  let d = Flow.Retime.design ctx in
  let net = List.hd (pick_nets d 1) in
  let _, stats = Flow.Retime.insert_buffer ctx ~net in
  let total = Design.num_insts d in
  Alcotest.(check bool)
    (Printf.sprintf "cone %d of %d insts" stats.T.insts_evaluated total)
    true
    (stats.T.insts_evaluated < total / 2)

(* QCheck: on a random design, a random sequence of ECO edits (pin swap,
   buffer insert, upsize) leaves the context equal to a from-scratch
   full run after EVERY edit — the incremental timing contract — and the
   repair objective's list-free (WNS, TNS) equal to the sorted endpoint
   list's *)
let gen_eco_case =
  QCheck.make
    ~print:(fun (seed, edits) ->
      Printf.sprintf "seed=%d edits=[%s]" seed
        (String.concat ";"
           (List.map (fun (k, i) -> Printf.sprintf "(%d,%d)" k i) edits)))
    QCheck.Gen.(
      pair (int_range 1 10_000)
        (list_size (int_range 3 6) (pair (int_range 0 2) (int_range 0 1_000))))

(* two-input commutative instances whose A/B pins carry different nets *)
let swappable_insts d =
  let acc = ref [] in
  Design.iter_insts d (fun i ->
      match i.Design.cell.Cell.kind with
      | Cell.Nand2 | Cell.Nand3 | Cell.Nor2 | Cell.Nor3 | Cell.And2 | Cell.Or2 | Cell.Xor2
      | Cell.Xnor2 ->
        let a = i.Design.conns.(0) and b = i.Design.conns.(1) in
        if a >= 0 && b >= 0 && a <> b then acc := i.Design.id :: !acc
      | _ -> ());
  Array.of_list (List.rev !acc)

let upsizable_insts d =
  let acc = ref [] in
  Design.iter_insts d (fun i ->
      if Stdcell.Library.upsize d.Design.lib i.Design.cell <> None then
        acc := i.Design.id :: !acc);
  Array.of_list (List.rev !acc)

let prop_random_eco_sequence =
  QCheck.Test.make ~name:"random ECO sequences stay exact" ~count:6 gen_eco_case
    (fun (seed, edits) ->
      let d = Circuits.Bench.tiny ~seed ~ffs:30 ~gates:250 () in
      let options =
        { Flow.Pipeline.default_options with
          Flow.Pipeline.tp_percent = 1.0;
          run_atpg = false }
      in
      let r = Helpers.run_flow ~options d in
      let ctx =
        Flow.Retime.create r.Flow.Pipeline.placement r.Flow.Pipeline.route
          r.Flow.Pipeline.rc
      in
      List.for_all
        (fun (kind, pick) ->
          let d = Flow.Retime.design ctx in
          (match kind with
           | 0 ->
             let sws = swappable_insts d in
             ignore
               (Flow.Retime.swap_pins ctx ~inst:sws.(pick mod Array.length sws) ~pin_a:0
                  ~pin_b:1)
           | 1 ->
             let nets = pick_nets d 8 in
             let net = List.nth nets (pick mod List.length nets) in
             ignore (Flow.Retime.insert_buffer ctx ~net)
           | _ ->
             let ups = upsizable_insts d in
             ignore (Flow.Retime.upsize ctx ~inst:ups.(pick mod Array.length ups)));
          let pl = Flow.Retime.placement ctx in
          let rt = Layout.Route.run pl in
          let rc = Layout.Extract.run pl rt in
          let full = Sta_reference.run pl rc in
          let inc = Flow.Retime.analysis ctx in
          let tg = Flow.Retime.tgraph ctx in
          (* the objective's old definition: head of the sorted endpoint
             list, negatives folded in list order *)
          let eps = (T.slack tg).T.endpoints and wns, tns = T.wns_tns tg in
          let ref_wns = match eps with [] -> 0.0 | e :: _ -> e.T.slack_ps in
          let ref_tns =
            List.fold_left
              (fun acc e -> if e.T.slack_ps < 0.0 then acc +. e.T.slack_ps else acc)
              0.0 eps
          in
          bits wns = bits ref_wns
          && bits tns = bits ref_tns
          && Array.for_all2 (fun a b -> bits a = bits b) full.A.arrival inc.A.arrival
          && Array.for_all2 (fun a b -> bits a = bits b) full.A.slew inc.A.slew
          && full.A.per_domain = inc.A.per_domain
          && full.A.worst = inc.A.worst
          && full.A.slow_nodes = inc.A.slow_nodes)
        edits)

(* retime keeps [sta.slow_nodes] by adjusting it for the instances it
   re-evaluates: lightening the overloaded net clears its driver's flag,
   restoring the load sets it again, and both counts equal a from-scratch
   propagation's *)
let test_retime_slow_count () =
  let d = Helpers.slow_fanout_design () in
  let pl = Layout.Place.run d (Layout.Floorplan.create ~utilization:0.8 d) in
  let rc = Layout.Extract.run pl (Layout.Route.run pl) in
  let gauge = Obs.Metrics.gauge "sta.slow_nodes" in
  let fresh rc =
    let f = T.compile d rc in
    T.propagate f;
    (T.analysis f).A.slow_nodes
  in
  let tg = T.compile d rc in
  T.propagate tg;
  let heavy = (T.analysis tg).A.slow_nodes in
  Alcotest.(check bool) "the overloaded driver is slow" true (heavy >= 1);
  let y = ref (-1) in
  Design.iter_nets d (fun n -> if n.Design.nname = "y" then y := n.Design.nid);
  let y = !y in
  let light_rc = Array.copy rc in
  light_rc.(y) <- { (rc.(y)) with Layout.Extract.total_cap_ff = 1.0 };
  let step msg rcs =
    T.update_rc tg y rcs.(y);
    ignore (T.retime tg ~dirty_nets:[ y ] ~dirty_insts:[]);
    let expected = fresh rcs in
    Alcotest.(check int) (msg ^ ": analysis") expected (T.analysis tg).A.slow_nodes;
    Alcotest.(check int) (msg ^ ": gauge") expected (int_of_float (Obs.Metrics.gauge_value gauge));
    expected
  in
  let light = step "lightened" light_rc in
  Alcotest.(check bool) "lightening clears a flag" true (light < heavy);
  Alcotest.(check int) "restored" heavy (step "restored" rc)

(* the cone worklist lives in the graph: a retime that evaluates a wide
   cone allocates its result record and nothing per instance *)
let test_retime_allocation_free () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let pl, _, rc = analysed d in
  let tg = T.compile d rc in
  T.propagate tg;
  (* the widest cell-driven net: loading it moves its whole cone *)
  let net = ref (-1) in
  Design.iter_nets d (fun n ->
      match n.Design.driver with
      | Design.Cell_pin _
        when !net < 0
             || List.length n.Design.sinks > List.length (Design.net d !net).Design.sinks ->
        net := n.Design.nid
      | _ -> ());
  let nid = !net and dirty = [ !net ] in
  ignore pl;
  let retime_words cap =
    T.update_rc tg nid { (rc.(nid)) with Layout.Extract.total_cap_ff = cap };
    let w0 = Gc.minor_words () in
    let st = T.retime tg ~dirty_nets:dirty ~dirty_insts:[] in
    (Gc.minor_words () -. w0, st.T.insts_evaluated)
  in
  ignore (retime_words (rc.(nid).Layout.Extract.total_cap_ff +. 40.0));
  let words, evaluated = retime_words rc.(nid).Layout.Extract.total_cap_ff in
  Alcotest.(check bool) (Printf.sprintf "cone of %d insts" evaluated) true (evaluated > 20);
  if words > 16.0 then
    Alcotest.failf "retime of %d instances allocated %.0f minor words" evaluated words

let suite =
  [ Alcotest.test_case "tgraph mini = analysis" `Quick test_tgraph_mini;
    Alcotest.test_case "tgraph tiny = analysis" `Quick test_tgraph_tiny;
    Alcotest.test_case "tgraph full flow = analysis" `Quick test_tgraph_full_flow;
    Alcotest.test_case "tgraph wns = slack report" `Quick test_tgraph_wns_matches_slack_report;
    Alcotest.test_case "required times consistent" `Quick test_required_consistent;
    Alcotest.test_case "eco upsize = full rerun" `Quick test_eco_upsize;
    Alcotest.test_case "eco buffer = full rerun" `Quick test_eco_buffer;
    Alcotest.test_case "eco cone bounded" `Quick test_eco_cone_bounded;
    QCheck_alcotest.to_alcotest prop_random_eco_sequence;
    Alcotest.test_case "warm propagate allocation-free" `Quick test_propagate_allocation_free;
    Alcotest.test_case "retime keeps the slow-node count" `Quick test_retime_slow_count;
    Alcotest.test_case "retime allocation-free" `Quick test_retime_allocation_free ]

(* ---- speculative trials: commit or roll back ---- *)

let downsizable_insts d =
  let acc = ref [] in
  Design.iter_insts d (fun i ->
      if Stdcell.Library.downsize d.Design.lib i.Design.cell <> None then
        acc := i.Design.id :: !acc);
  Array.of_list (List.rev !acc)

(* the graph's timing state over the live slots *)
type timing_snapshot = {
  s_arrival : float array;
  s_slew : float array;
  s_from_inst : int array;
  s_from_pin : int array;
  s_slow : bool array;
  s_slow_count : int;
}

let snapshot (ctx : Flow.Retime.t) =
  let tg = Flow.Retime.tgraph ctx and d = Flow.Retime.design ctx in
  let nn = Design.num_nets d and ni = Design.num_insts d in
  { s_arrival = Array.init nn (T.arrival tg);
    s_slew = Array.init nn (T.slew tg);
    s_from_inst = Array.init nn (T.from_inst tg);
    s_from_pin = Array.init nn (T.from_pin tg);
    s_slow = Array.init ni (T.slow tg);
    s_slow_count = T.slow_count tg }

let same_snapshot a b =
  let floats x y = Array.length x = Array.length y && Array.for_all2 (fun p q -> bits p = bits q) x y in
  floats a.s_arrival b.s_arrival && floats a.s_slew b.s_slew
  && a.s_from_inst = b.s_from_inst && a.s_from_pin = b.s_from_pin
  && a.s_slow = b.s_slow && a.s_slow_count = b.s_slow_count

(* the values timing reads off one net's parasitics: load and each sink's
   Elmore delay, keyed by sink *)
let rc_values (r : Layout.Extract.net_rc) =
  ( bits r.Layout.Extract.total_cap_ff,
    List.sort compare
      (List.map
         (fun (s : Layout.Extract.sink_rc) ->
           (s.Layout.Extract.s_inst, s.Layout.Extract.s_pin, bits s.Layout.Extract.elmore_ps))
         r.Layout.Extract.sink_delays) )

(* the context against a fresh route/extract/reference analysis: timing
   bit for bit, every live net's route and parasitics structurally *)
let ctx_is_fresh ctx =
  let pl = Flow.Retime.placement ctx in
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  let full = Sta_reference.run pl rc in
  let inc = Flow.Retime.analysis ctx in
  let crc = Flow.Retime.rc ctx and croutes = (Flow.Retime.route ctx).Layout.Route.routes in
  Array.for_all2 (fun a b -> bits a = bits b) full.A.arrival inc.A.arrival
  && Array.for_all2 (fun a b -> bits a = bits b) full.A.slew inc.A.slew
  && full.A.per_domain = inc.A.per_domain
  && full.A.worst = inc.A.worst
  && full.A.slow_nodes = inc.A.slow_nodes
  && full.A.slow_nodes = T.slow_count (Flow.Retime.tgraph ctx)
  && List.for_all
       (fun nid ->
         bits rc.(nid).Layout.Extract.total_cap_ff = bits crc.(nid).Layout.Extract.total_cap_ff
         && rc.(nid).Layout.Extract.sink_delays = crc.(nid).Layout.Extract.sink_delays
         && rt.Layout.Route.routes.(nid) = croutes.(nid))
       (List.init (Array.length rc) Fun.id)

(* one parasitics entry and one route slot per net of the design: a
   rolled-back buffer's net leaves no dead slot behind *)
let mirrors_sized ctx =
  let nn = Design.num_nets (Flow.Retime.design ctx) in
  Array.length (Flow.Retime.rc ctx) = nn
  && Array.length (Flow.Retime.route ctx).Layout.Route.routes = nn

let gen_trial_case =
  QCheck.make
    ~print:(fun (seed, trials) ->
      Printf.sprintf "seed=%d trials=[%s]" seed
        (String.concat ";"
           (List.map (fun (k, i, c) -> Printf.sprintf "(%d,%d,%b)" k i c) trials)))
    QCheck.Gen.(
      pair (int_range 1 10_000)
        (list_size (int_range 4 8) (triple (int_range 0 3) (int_range 0 1_000) bool)))

(* QCheck: random trials (buffer, upsize, downsize, pin swap), each
   committed or rolled back at random. After every step the context has
   one parasitics entry and one route slot per net and equals a fresh
   route/extract/reference analysis of the design. A rollback
   restores the graph's timing state bit for bit whenever the reverted
   design's parasitics are the pre-trial ones: always after a buffer, and
   after a resize or swap unless re-attaching the pin at the head of a
   sink list moved a load or an Elmore delay, when the fresh-analysis
   check is the one that applies. *)
let prop_trial_rollback =
  QCheck.Test.make ~name:"trial rollback is exact" ~count:6 gen_trial_case
    (fun (seed, trials) ->
      let d = Circuits.Bench.tiny ~seed ~ffs:30 ~gates:250 () in
      let options =
        { Flow.Pipeline.default_options with
          Flow.Pipeline.tp_percent = 1.0;
          run_atpg = false }
      in
      let r = Helpers.run_flow ~options d in
      let ctx =
        Flow.Retime.create r.Flow.Pipeline.placement r.Flow.Pipeline.route
          r.Flow.Pipeline.rc
      in
      List.for_all
        (fun (kind, pick, keep) ->
          let d = Flow.Retime.design ctx in
          let before = snapshot ctx in
          let rc_before = Array.map rc_values (Flow.Retime.rc ctx) in
          (* an empty candidate set leaves the trial empty *)
          let with_pick a f = if Array.length a > 0 then f a.(pick mod Array.length a) in
          Flow.Retime.open_trial ctx;
          (match kind with
           | 0 ->
             with_pick (Array.of_list (pick_nets d 8)) (fun net ->
                 ignore (Flow.Retime.insert_buffer ctx ~net))
           | 1 -> with_pick (upsizable_insts d) (fun inst -> ignore (Flow.Retime.upsize ctx ~inst))
           | 2 ->
             with_pick (downsizable_insts d) (fun inst -> ignore (Flow.Retime.downsize ctx ~inst))
           | _ ->
             with_pick (swappable_insts d) (fun inst ->
                 ignore (Flow.Retime.swap_pins ctx ~inst ~pin_a:0 ~pin_b:1)));
          if keep then Flow.Retime.commit ctx else Flow.Retime.rollback ctx;
          let restored =
            keep
            ||
            let rc_after = Array.map rc_values (Flow.Retime.rc ctx) in
            rc_after <> rc_before || same_snapshot before (snapshot ctx)
          in
          restored && mirrors_sized ctx && ctx_is_fresh ctx)
        trials)

(* slow flags and the slow-node count roll back too: a trial buffer
   takes the overloaded net's load off its inverter (clearing the
   inverter's flag); the rollback sets the flag, the count and the
   [sta.slow_nodes] gauge back *)
let test_rollback_slow_flags () =
  let d = Helpers.slow_fanout_design () in
  let pl = Layout.Place.run d (Layout.Floorplan.create ~utilization:0.8 d) in
  let rt = Layout.Route.run pl in
  let ctx = Flow.Retime.create pl rt (Layout.Extract.run pl rt) in
  let tg = Flow.Retime.tgraph ctx in
  let gauge = Obs.Metrics.gauge "sta.slow_nodes" in
  let y = ref (-1) in
  Design.iter_nets d (fun n -> if n.Design.nname = "y" then y := n.Design.nid);
  let inv =
    match (Design.net d !y).Design.driver with
    | Design.Cell_pin (iid, _) -> iid
    | _ -> Alcotest.fail "y has no cell driver"
  in
  Alcotest.(check bool) "the overloaded inverter is slow" true (T.slow tg inv);
  let before = snapshot ctx in
  Flow.Retime.open_trial ctx;
  ignore (Flow.Retime.insert_buffer ctx ~net:!y);
  Alcotest.(check bool) "the buffer takes the load" false (T.slow tg inv);
  Flow.Retime.rollback ctx;
  Alcotest.(check bool) "timing state restored" true (same_snapshot before (snapshot ctx));
  Alcotest.(check int) "gauge" before.s_slow_count
    (int_of_float (Obs.Metrics.gauge_value gauge));
  Alcotest.(check bool) "equal to a fresh analysis" true (ctx_is_fresh ctx)

let rollback =
  [ QCheck_alcotest.to_alcotest prop_trial_rollback;
    Alcotest.test_case "rollback restores slow flags" `Quick test_rollback_slow_flags ]
