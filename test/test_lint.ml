(* lib/lint: rule packs (positive + negative per rule), engine
   behaviour (crash containment, gate, read-only property), waiver
   fingerprint stability under renames, and the three emitters. *)

module Design = Netlist.Design
module Cell = Stdcell.Cell
module Diag = Lint.Diag
module Rule = Lint.Rule
module Engine = Lint.Engine
module Waiver = Lint.Waiver
module Emit = Lint.Emit

let cell = Helpers.cell

let run ?arts ?rules ?waivers d = Engine.run ?arts ?rules ?waivers d
let ids (r : Engine.report) = List.map (fun (d, _) -> d.Diag.rule) r.Engine.diags
let has id r = List.mem id (ids r)

let find_diag id (r : Engine.report) =
  List.find (fun (d, _) -> d.Diag.rule = id) r.Engine.diags |> fst

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let ok = ref false in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then ok := true
  done;
  !ok

let net_named d name =
  let found = ref None in
  Design.iter_nets d (fun n -> if n.Design.nname = name then found := Some n);
  match !found with
  | Some n -> n
  | None -> Alcotest.fail ("no net named " ^ name)

let inst_named d name =
  let found = ref None in
  Design.iter_insts d (fun i -> if i.Design.iname = name then found := Some i);
  match !found with
  | Some i -> i
  | None -> Alcotest.fail ("no instance named " ^ name)

let check_has r id = Alcotest.(check bool) (id ^ " reported") true (has id r)
let check_not r id = Alcotest.(check bool) (id ^ " quiet") false (has id r)

(* --- fixtures ------------------------------------------------------ *)

(* mini_design from Helpers is the lint-clean base: one domain, fully
   wired, every output observed *)
let clean = Helpers.mini_design

let add_gate d name kind ins =
  let g = Design.add_instance d ~name ~cell:(cell kind) in
  List.iteri (fun pin net -> Design.connect d ~inst:g.Design.id ~pin ~net) ins;
  let y = Design.add_net d (name ^ "_y") in
  Design.connect d ~inst:g.Design.id ~pin:(Cell.output_pin g.Design.cell)
    ~net:y.Design.nid;
  y.Design.nid

let add_dff d name ~data ~clk ~domain =
  let ff = Design.add_instance d ~name ~cell:(cell Cell.Dff) in
  ff.Design.domain <- domain;
  Design.connect d ~inst:ff.Design.id ~pin:0 ~net:data;
  Design.connect d ~inst:ff.Design.id ~pin:1 ~net:clk;
  let q = Design.add_net d (name ^ "_q") in
  Design.connect d ~inst:ff.Design.id ~pin:2 ~net:q.Design.nid;
  q.Design.nid

(* long inverter chain capped by a flip-flop, optionally with a test
   point dropped on the chain through the real TPI API: the in-memory
   twin of examples/lint_viol.v's critical-path half *)
let chain_design ?(stages = 30) ?(period_ps = 500.0) () =
  let d = Design.create "crit" in
  let clk = Design.add_port d "clk" Design.In in
  let a = Design.add_port d "a" Design.In in
  let y = Design.add_port d "y" Design.Out in
  let dom = Design.add_domain d ~name:"core" ~period_ps ~clock_net:clk.Design.pnet in
  let chain = ref a.Design.pnet in
  for k = 1 to stages do
    chain := add_gate d (Printf.sprintf "c%d" k) Cell.Inv [ !chain ]
  done;
  let q = add_dff d "ff_cap" ~data:!chain ~clk:clk.Design.pnet ~domain:dom in
  Design.connect_out_port d ~port:y.Design.pid ~net:q;
  d

let critical_tp ?stages ?period_ps ?(tap = "c25_y") () =
  let d = chain_design ?stages ?period_ps () in
  let tap = (net_named d tap).Design.nid in
  let tp = Tpi.Insert.insert_point d ~net:tap ~index:0 in
  (d, tp, tap)

(* --- whole-engine sanity ------------------------------------------- *)

let test_clean_design () =
  let r = run (clean ()) in
  Alcotest.(check int) "no active diagnostics" 0 (List.length r.Engine.diags);
  Alcotest.(check int) "no errors" 0 r.Engine.errors;
  Alcotest.(check int) "no warnings" 0 r.Engine.warnings;
  Alcotest.(check bool) "worst is None" true (Engine.worst r = None)

let test_registry () =
  let rules = Engine.all_rules in
  Alcotest.(check int) "20 registered rules" 20 (List.length rules);
  Alcotest.(check int) "4 packs" 4 (List.length Engine.packs);
  let ids = List.map (fun r -> r.Rule.id) rules in
  let uniq = List.sort_uniq compare ids in
  Alcotest.(check int) "rule ids unique" (List.length ids) (List.length uniq);
  List.iter
    (fun r ->
      let prefixed p = String.length r.Rule.id > String.length p
                       && String.sub r.Rule.id 0 (String.length p) = p in
      Alcotest.(check bool)
        (r.Rule.id ^ " pack-prefixed") true
        (List.exists prefixed [ "struct."; "clock."; "scan."; "tpi."; "repair." ]))
    rules

let test_stats_cover_rules () =
  let r = run (clean ()) in
  Alcotest.(check int) "one stat per rule" (List.length Engine.all_rules)
    (List.length r.Engine.stats)

(* --- structural pack ----------------------------------------------- *)

let test_comb_loop () =
  let d = clean () in
  (* l1 -> l2 -> l3 -> l1 *)
  let mk name = Design.add_instance d ~name ~cell:(cell Cell.Inv) in
  let l1 = mk "l1" and l2 = mk "l2" and l3 = mk "l3" in
  let wire src (dst : Design.instance) =
    let n = Design.add_net d (src.Design.iname ^ "_y") in
    Design.connect d ~inst:src.Design.id ~pin:1 ~net:n.Design.nid;
    Design.connect d ~inst:dst.Design.id ~pin:0 ~net:n.Design.nid
  in
  wire l1 l2; wire l2 l3; wire l3 l1;
  let r = run d in
  check_has r "struct.comb-loop";
  Alcotest.(check bool) "is an error" true
    ((find_diag "struct.comb-loop" r).Diag.severity = Diag.Error)

let test_multi_driver () =
  let d = clean () in
  (* second driver wired behind Design.connect's back: the connection
     array is the ground truth the fact sweep audits *)
  let n1 = net_named d "n1" in
  let h = Design.add_instance d ~name:"h" ~cell:(cell Cell.Inv) in
  Design.connect d ~inst:h.Design.id ~pin:0 ~net:n1.Design.nid;
  h.Design.conns.(1) <- n1.Design.nid;
  let r = run d in
  check_has r "struct.multi-driver";
  check_not (run (clean ())) "struct.multi-driver"

let test_undriven_and_unloaded () =
  let d = clean () in
  let u = Design.add_net d "u" in
  let w = Design.add_net d "w" in
  let g = Design.add_instance d ~name:"dead" ~cell:(cell Cell.Inv) in
  Design.connect d ~inst:g.Design.id ~pin:0 ~net:u.Design.nid;
  Design.connect d ~inst:g.Design.id ~pin:1 ~net:w.Design.nid;
  let r = run d in
  check_has r "struct.undriven-net";
  check_has r "struct.unloaded-output"

let test_floating_input () =
  let d = clean () in
  let g = Design.add_instance d ~name:"half" ~cell:(cell Cell.Inv) in
  let w = Design.add_net d "half_y" in
  Design.connect d ~inst:g.Design.id ~pin:1 ~net:w.Design.nid;
  let r = run d in
  check_has r "struct.floating-input"

let test_unbound_port () =
  let d = clean () in
  let p = Design.add_port d "px" Design.In in
  (Design.port d p.Design.pid).Design.pnet <- -1;
  check_has (run d) "struct.unbound-port"

let test_dangling_ff () =
  let d = clean () in
  let clk = (net_named d "clk").Design.nid in
  let (_ : int) =
    add_dff d "ff_dead" ~data:(net_named d "n1").Design.nid ~clk ~domain:0
  in
  let r = run d in
  check_has r "struct.dangling-ff";
  Alcotest.(check bool) "warn, not error" true
    ((find_diag "struct.dangling-ff" r).Diag.severity = Diag.Warn)

let test_arity_mismatch () =
  let d = clean () in
  let bogus = { (cell Cell.Inv) with Cell.name = "BOGUS_X1" } in
  let g = Design.add_instance d ~name:"alien" ~cell:bogus in
  Design.connect d ~inst:g.Design.id ~pin:0 ~net:(net_named d "n1").Design.nid;
  let w = Design.add_net d "alien_y" in
  Design.connect d ~inst:g.Design.id ~pin:1 ~net:w.Design.nid;
  check_has (run d) "struct.arity-mismatch"

(* --- clock/scan pack ----------------------------------------------- *)

let test_ff_no_domain () =
  let d = clean () in
  (inst_named d "ff0").Design.domain <- -1;
  check_has (run d) "clock.ff-no-domain"

let test_ff_clock_mismatch () =
  let d = clean () in
  (* clock pin quietly rewired onto a data net *)
  (inst_named d "ff0").Design.conns.(1) <- (net_named d "n1").Design.nid;
  check_has (run d) "clock.ff-clock-mismatch"

let two_domain d =
  let clk2 = Design.add_port d "clk2" Design.In in
  Design.add_domain d ~name:"io" ~period_ps:8000.0 ~clock_net:clk2.Design.pnet

let add_capture_ff d ~data ~through_gate =
  let dom2 = two_domain d in
  let clk2 = d.Design.domains.(dom2).Design.clock_net in
  let src = if through_gate then add_gate d "x1" Cell.Inv [ data ] else data in
  add_dff d "ff_io" ~data:src ~clk:clk2 ~domain:dom2

let test_cdc_unsynced () =
  let d = clean () in
  let q0 = Design.net_of_output d (inst_named d "ff0") in
  let (_ : int) = add_capture_ff d ~data:q0 ~through_gate:true in
  check_has (run d) "clock.cdc-unsynced"

let test_cdc_direct_hop_quiet () =
  (* a straight FF->FF hop is the first stage of a synchronizer *)
  let d = clean () in
  let q0 = Design.net_of_output d (inst_named d "ff0") in
  let (_ : int) = add_capture_ff d ~data:q0 ~through_gate:false in
  check_not (run d) "clock.cdc-unsynced"

let test_tp_domain () =
  let d = clean () in
  (* tap behind ff0's Q, so the neighbourhood domain is pinned by ff0
     (domain 0) and not by the test point's own flop *)
  let q0 = Design.net_of_output d (inst_named d "ff0") in
  let n4 = add_gate d "g4" Cell.Inv [ q0 ] in
  let tp = Tpi.Insert.insert_point d ~net:n4 ~index:0 in
  let dom2 = two_domain d in
  tp.Design.domain <- dom2;
  check_has (run d) "clock.tp-domain"

let test_tp_insertion_is_clean () =
  (* a test point inserted through the real API on an off-critical net
     raises no errors; the only finding left is the density warn (one
     point over two plain flip-flops bursts the 3% envelope) *)
  let d = chain_design ~stages:12 ~period_ps:1_000_000.0 () in
  let clk = (net_named d "clk").Design.nid in
  let b = Design.add_port d "b" Design.In in
  let side = add_gate d "sb" Cell.Inv [ b.Design.pnet ] in
  let (_ : int) = add_dff d "ff_side" ~data:side ~clk ~domain:0 in
  let (_ : Design.instance) = Tpi.Insert.insert_point d ~net:side ~index:0 in
  let r = run d in
  Alcotest.(check int) "no errors" 0 r.Engine.errors;
  check_not r "clock.tp-domain";
  check_not r "scan.chain-stitch";
  check_not r "tpi.critical-path";
  check_has r "tpi.density"

let scan_pair () =
  (* mini + a second observed flop, both converted to SDFFs and stitched *)
  let d = clean () in
  let clk = (net_named d "clk").Design.nid in
  let q1 = add_dff d "ff1" ~data:(net_named d "n1").Design.nid ~clk ~domain:0 in
  let o = add_gate d "gq" Cell.Inv [ q1 ] in
  let po = Design.add_port d "po1" Design.Out in
  Design.connect_out_port d ~port:po.Design.pid ~net:o;
  let (_ : int) = Scan.Replace.run d in
  let plan = Scan.Chains.plan d (Scan.Chains.Max_length 100) in
  Scan.Chains.stitch d plan;
  (d, plan)

let arts_with_chains plan = { Rule.no_artifacts with Rule.chains = Some plan }

let test_chain_stitch_structural () =
  let d = clean () in
  let clk = (net_named d "clk").Design.nid in
  let s = Design.add_instance d ~name:"s0" ~cell:(cell Cell.Sdff) in
  s.Design.domain <- 0;
  Design.connect d ~inst:s.Design.id ~pin:0 ~net:(net_named d "n1").Design.nid;
  (* TI (pin 1) left unconnected: broken stitching *)
  Design.connect d ~inst:s.Design.id ~pin:3 ~net:clk;
  let q = Design.add_net d "s0_q" in
  Design.connect d ~inst:s.Design.id ~pin:4 ~net:q.Design.nid;
  check_has (run d) "scan.chain-stitch"

let test_chain_stitch_with_plan () =
  let d, plan = scan_pair () in
  check_not (run ~arts:(arts_with_chains plan) d) "scan.chain-stitch";
  (* a plan the stitching does not realise: same cells, reversed order *)
  let rev =
    Array.map
      (fun c ->
        let n = Array.length c in
        Array.init n (fun i -> c.(n - 1 - i)))
      plan.Scan.Chains.chains
  in
  let bad = { plan with Scan.Chains.chains = rev } in
  check_has (run ~arts:(arts_with_chains bad) d) "scan.chain-stitch"

let test_lockup_crossing () =
  let d, plan = scan_pair () in
  Alcotest.(check int) "one chain of two" 2
    (Array.length plan.Scan.Chains.chains.(0));
  let dom2 = two_domain d in
  let second = Design.inst d plan.Scan.Chains.chains.(0).(1) in
  second.Design.domain <- dom2;
  check_has (run ~arts:(arts_with_chains plan) d) "scan.lockup-crossing";
  (* same-domain chain stays quiet *)
  second.Design.domain <- 0;
  check_not (run ~arts:(arts_with_chains plan) d) "scan.lockup-crossing"

(* --- tpi/timing pack ----------------------------------------------- *)

let test_critical_path_estimate () =
  let d, _, _ = critical_tp () in
  let r = run d in
  check_has r "tpi.critical-path";
  let diag = find_diag "tpi.critical-path" r in
  Alcotest.(check bool) "error severity" true (diag.Diag.severity = Diag.Error);
  Alcotest.(check bool) "names the overrun" true
    (contains diag.Diag.message "past the 500 ps period")

let test_near_critical_warns () =
  (* relaxed period, but the tap rides the single worst path *)
  let d, _, _ = critical_tp ~stages:10 ~period_ps:8000.0 ~tap:"c10_y" () in
  let r = run d in
  check_has r "tpi.critical-path";
  Alcotest.(check bool) "demoted to warn" true
    ((find_diag "tpi.critical-path" r).Diag.severity = Diag.Warn)

let test_critical_path_sta_artifact () =
  let d = clean () in
  let tap = (net_named d "n1").Design.nid in
  let (_ : Design.instance) = Tpi.Insert.insert_point d ~net:tap ~index:0 in
  let arts = { Rule.no_artifacts with Rule.crit_nets = Some [ tap ] } in
  check_has (run ~arts d) "tpi.critical-path";
  (* the same design against an empty critical set is quiet *)
  let arts = { Rule.no_artifacts with Rule.crit_nets = Some [] } in
  check_not (run ~arts d) "tpi.critical-path"

let test_density_envelope () =
  (* 1 test point on 1 plain flip-flop = 100% of the 3% envelope *)
  let d, _, _ = critical_tp ~stages:10 ~period_ps:1_000_000.0 ~tap:"c3_y" () in
  check_has (run d) "tpi.density"

let test_low_observability_cop () =
  let d = Design.create "blind" in
  let clk = Design.add_port d "clk" Design.In in
  let a = Design.add_port d "a" Design.In in
  let (_ : int) =
    Design.add_domain d ~name:"core" ~period_ps:4000.0 ~clock_net:clk.Design.pnet
  in
  let n1 = add_gate d "g1" Cell.Inv [ a.Design.pnet ] in
  (* g2's output observes nothing, so values injected on n1 die there *)
  let (_ : int) = add_gate d "g2" Cell.Inv [ n1 ] in
  let (_ : Design.instance) = Tpi.Insert.insert_point d ~net:n1 ~index:0 in
  let r = run d in
  check_has r "tpi.low-observability";
  Alcotest.(check bool) "names the dead downstream" true
    (contains (find_diag "tpi.low-observability" r).Diag.message "unobservable")

let test_low_observability_redundant () =
  let d = clean () in
  let q0 = Design.net_of_output d (inst_named d "ff0") in
  let clk = (net_named d "clk").Design.nid in
  let se = (net_named d "pi0").Design.nid in
  (* hand-built TSFF tapping q0, which already drives an output port *)
  let tp = Design.add_instance d ~name:"tp0" ~cell:(cell Cell.Tsff) in
  tp.Design.domain <- 0;
  Design.connect d ~inst:tp.Design.id ~pin:0 ~net:q0;
  Design.connect d ~inst:tp.Design.id ~pin:1 ~net:se;  (* TI off a port: legal *)
  Design.connect d ~inst:tp.Design.id ~pin:2 ~net:se;
  Design.connect d ~inst:tp.Design.id ~pin:3 ~net:se;
  Design.connect d ~inst:tp.Design.id ~pin:4 ~net:clk;
  let q = Design.add_net d "tp0_q" in
  Design.connect d ~inst:tp.Design.id ~pin:5 ~net:q.Design.nid;
  let r = run d in
  Alcotest.(check bool) "redundant tap reported" true
    (List.exists
       (fun (dg, _) ->
         dg.Diag.rule = "tpi.low-observability"
         && contains dg.Diag.message "already directly observed")
       r.Engine.diags)

(* --- engine behaviour ---------------------------------------------- *)

let test_rule_crash_contained () =
  let crash =
    { Rule.id = "test.crash"; pack = "test"; title = "always raises";
      severity = Diag.Warn; check = (fun _ -> failwith "boom") }
  in
  let r = run ~rules:[ crash ] (clean ()) in
  Alcotest.(check int) "one diagnostic" 1 (List.length r.Engine.diags);
  let d = find_diag "test.crash" r in
  Alcotest.(check bool) "promoted to error" true (d.Diag.severity = Diag.Error);
  Alcotest.(check bool) "anchored at the lint stage" true
    (d.Diag.loc = Diag.Stage "lint");
  Alcotest.(check bool) "carries the escape" true (contains d.Diag.message "boom")

let test_gate () =
  Engine.gate (run (clean ()));
  let d, _, _ = critical_tp () in
  match Engine.gate (run d) with
  | () -> Alcotest.fail "gate accepted an erroring report"
  | exception Engine.Lint_failed msg ->
    Alcotest.(check bool) "names the rule" true (contains msg "tpi.critical-path")

let test_read_only () =
  let designs =
    [ ("mini", clean ());
      ("crit", (let d, _, _ = critical_tp () in d));
      ("tiny", Helpers.tiny ()) ]
  in
  List.iter
    (fun (name, d) ->
      let before = Design.fingerprint d in
      let (_ : Engine.report) = run d in
      Alcotest.(check string) (name ^ " untouched by lint") before
        (Design.fingerprint d))
    designs

let test_guard_preflight () =
  let d, _, _ = critical_tp () in
  let options = { Flow.Pipeline.default_options with Flow.Pipeline.lint = true } in
  let report = Flow.Guard.run ~options ~circuit:"lint-viol" (fun () -> d) in
  Alcotest.(check bool) "flow failed" false (Flow.Guard.succeeded report);
  (match report.Flow.Guard.error with
   | None -> Alcotest.fail "no stage error"
   | Some e ->
     Alcotest.(check string) "lint-failed class" "lint-failed"
       (Flow.Guard.error_class e));
  List.iter
    (fun (_, st) ->
      Alcotest.(check bool) "stage skipped" true (st = Flow.Guard.Skipped))
    report.Flow.Guard.stage_log

(* --- waivers ------------------------------------------------------- *)

let test_waiver_rename_stable () =
  let d, _, _ = critical_tp () in
  let diags = List.map fst (run d).Engine.diags in
  Alcotest.(check bool) "fixture reports something" true (diags <> []);
  let before = List.map (Waiver.signature d) diags in
  Design.iter_insts d (fun i -> i.Design.iname <- "renamed_" ^ i.Design.iname);
  Design.iter_nets d (fun n -> n.Design.nname <- "renamed_" ^ n.Design.nname);
  let after = List.map (Waiver.signature d) diags in
  List.iter2 (Alcotest.(check string) "signature survives a rename") before after

let test_waiver_occurrence_split () =
  (* two structurally identical findings get distinct #k qualifiers *)
  let d = clean () in
  List.iter
    (fun name ->
      let g = Design.add_instance d ~name ~cell:(cell Cell.Inv) in
      let w = Design.add_net d (name ^ "_y") in
      Design.connect d ~inst:g.Design.id ~pin:1 ~net:w.Design.nid)
    [ "twin_a"; "twin_b" ];
  let fps =
    (run d).Engine.diags
    |> List.filter (fun (dg, _) -> dg.Diag.rule = "struct.floating-input")
    |> List.map snd
  in
  Alcotest.(check int) "two findings" 2 (List.length fps);
  Alcotest.(check bool) "distinct fingerprints" true
    (List.nth fps 0 <> List.nth fps 1);
  let base fp = List.hd (String.split_on_char '#' fp) in
  Alcotest.(check string) "same structural hash" (base (List.nth fps 0))
    (base (List.nth fps 1))

let test_waiver_apply_and_stale () =
  let d, _, _ = critical_tp () in
  let first = run d in
  let w = Engine.baseline ~reason:"known" first in
  let again = run ~waivers:w d in
  Alcotest.(check int) "everything waived" 0 (List.length again.Engine.diags);
  Alcotest.(check int) "waived count" (List.length first.Engine.diags)
    (List.length again.Engine.waived);
  Alcotest.(check int) "no errors left" 0 again.Engine.errors;
  Engine.gate again;
  let stale =
    { Waiver.entries =
        [ { Waiver.fingerprint = "deadbeef#0"; rule = "struct.comb-loop";
            reason = "long gone" } ] }
  in
  let r = run ~waivers:stale d in
  Alcotest.(check int) "stale entry surfaced" 1 (List.length r.Engine.stale);
  Alcotest.(check int) "diagnostics unaffected" (List.length first.Engine.diags)
    (List.length r.Engine.diags)

let test_waiver_file_roundtrip () =
  let d, _, _ = critical_tp () in
  let w = Engine.baseline ~reason:"seed" (run d) in
  let path = Filename.temp_file "tpi_waivers" ".json" in
  Waiver.save path w;
  (match Waiver.load path with
   | Error e -> Alcotest.fail ("load failed: " ^ e)
   | Ok back ->
     Alcotest.(check int) "entry count survives" (List.length w.Waiver.entries)
       (List.length back.Waiver.entries);
     List.iter2
       (fun (a : Waiver.entry) (b : Waiver.entry) ->
         Alcotest.(check string) "fingerprint" a.Waiver.fingerprint
           b.Waiver.fingerprint;
         Alcotest.(check string) "rule" a.Waiver.rule b.Waiver.rule)
       w.Waiver.entries back.Waiver.entries);
  Sys.remove path;
  match Waiver.load path with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

(* --- emitters ------------------------------------------------------ *)

let member path j =
  List.fold_left
    (fun acc k -> match acc with Some v -> Obs.Json.member k v | None -> None)
    (Some j) path

let as_list = function Some (Obs.Json.List l) -> l | _ -> []

let test_text_emitter () =
  let d = clean () in
  (inst_named d "ff0").Design.domain <- -1;
  let r = run d in
  let out = Emit.text d r in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "diag line + summary" 2 (List.length lines);
  let first = List.hd lines in
  Alcotest.(check string) "severity leads" "error" (String.sub first 0 5);
  Alcotest.(check bool) "rule id present" true (contains first "clock.ff-no-domain");
  Alcotest.(check bool) "instance named" true (contains first "ff0");
  Alcotest.(check bool) "hint rendered" true (contains first "declared domain");
  let last = List.nth lines 1 in
  Alcotest.(check string) "summary counts the error" "lint: 1 error,"
    (String.sub last 0 14);
  (* clean report: just the summary line *)
  let clean_out = Emit.text d (run (clean ())) in
  Alcotest.(check int) "clean = one line" 1
    (String.split_on_char '\n' clean_out
     |> List.filter (fun l -> l <> "")
     |> List.length)

let test_json_emitter () =
  let d, _, _ = critical_tp () in
  let r = run d in
  let j = Emit.json d r in
  (* must survive its own serializer *)
  (match Obs.Json.parse (Obs.Json.to_string j) with
   | Error e -> Alcotest.fail ("round-trip: " ^ e)
   | Ok _ -> ());
  (match member [ "summary"; "errors" ] j with
   | Some (Obs.Json.Int n) -> Alcotest.(check int) "error count" r.Engine.errors n
   | _ -> Alcotest.fail "summary.errors missing");
  let diags = as_list (member [ "diagnostics" ] j) in
  Alcotest.(check int) "diagnostic count" (List.length r.Engine.diags)
    (List.length diags);
  List.iter
    (fun dj ->
      match (member [ "rule" ] dj, member [ "fingerprint" ] dj) with
      | Some (Obs.Json.String _), Some (Obs.Json.String fp) ->
        Alcotest.(check bool) "occurrence-qualified" true (contains fp "#")
      | _ -> Alcotest.fail "diagnostic missing rule/fingerprint")
    diags

let test_sarif_emitter () =
  let d, _, _ = critical_tp () in
  let r = run d in
  let s = Emit.sarif d r in
  (match member [ "version" ] s with
   | Some (Obs.Json.String v) -> Alcotest.(check string) "sarif version" "2.1.0" v
   | _ -> Alcotest.fail "version missing");
  let runs = as_list (member [ "runs" ] s) in
  Alcotest.(check int) "one run" 1 (List.length runs);
  let run0 = List.hd runs in
  Alcotest.(check int) "all rules carried as metadata"
    (List.length Engine.all_rules)
    (List.length (as_list (member [ "tool"; "driver"; "rules" ] run0)));
  let results = as_list (member [ "results" ] run0) in
  Alcotest.(check int) "one result per active diagnostic"
    (List.length r.Engine.diags) (List.length results);
  Alcotest.(check bool) "critical-path result present" true
    (List.exists
       (fun res ->
         member [ "ruleId" ] res = Some (Obs.Json.String "tpi.critical-path"))
       results);
  (* a fully-waived run renders every result suppressed *)
  let waived = Engine.run ~waivers:(Engine.baseline r) d in
  let s2 = Emit.sarif d waived in
  let results2 =
    as_list (member [ "results" ] (List.hd (as_list (member [ "runs" ] s2))))
  in
  Alcotest.(check bool) "waived results kept" true (results2 <> []);
  List.iter
    (fun res ->
      Alcotest.(check bool) "suppressed" true
        (as_list (member [ "suppressions" ] res) <> []))
    results2

(* --- checked-in example netlists ------------------------------------ *)

(* examples/lint_viol.v and lint_clean.v are what the CLI's lint gate
   runs; their findings are pinned as (rule, severity, location) so a
   change to a rule's engine cannot silently move or drop one *)
let example path = Filename.concat "../examples" path

let triples d (r : Engine.report) =
  List.map
    (fun ((dg : Diag.t), _) ->
      (dg.Diag.rule, Diag.severity_name dg.Diag.severity, Diag.loc_string d dg.Diag.loc))
    r.Engine.diags

let test_example_fixtures () =
  let viol = Netlist.Verilog.parse_file (example "lint_viol.v") in
  Alcotest.(check (list (triple string string string)))
    "lint_viol.v findings"
    [ ("struct.comb-loop", "error", "inst i42 (l1)");
      ("tpi.critical-path", "error", "inst i46 (tp0)");
      ("tpi.density", "warn", "design") ]
    (triples viol (run viol));
  let waivers =
    match Waiver.load (example "lint_viol.waivers.json") with
    | Ok w -> w
    | Error msg -> Alcotest.fail msg
  in
  let r = run ~waivers viol in
  Alcotest.(check int) "every finding waived" 0 (List.length r.Engine.diags);
  Alcotest.(check int) "three suppressed" 3 (List.length r.Engine.waived);
  Alcotest.(check int) "no stale waiver" 0 (List.length r.Engine.stale);
  let clean = Netlist.Verilog.parse_file (example "lint_clean.v") in
  Alcotest.(check (list (triple string string string)))
    "lint_clean.v findings" [] (triples clean (run clean))

(* --- totality of the netlist readers ------------------------------- *)

(* every mutant of a checked-in netlist parses to a design or fails with
   the reader's typed Parse_error, and every design that parses lints
   without a rule crash *)

let is_word_char = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false

(* word runs and single other bytes, so one mutation can swap a whole
   net, pin or gate name for another *)
let tokens src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let j = ref (i + 1) in
      if is_word_char src.[i] then while !j < n && is_word_char src.[!j] do incr j done;
      go !j (String.sub src i (!j - i) :: acc)
    end
  in
  Array.of_list (go 0 [])

let mutant src =
  let open QCheck.Gen in
  let toks = tokens src in
  let words = Array.of_list (List.filter (fun t -> is_word_char t.[0]) (Array.to_list toks)) in
  let step toks =
    let* k = int_bound (Array.length toks - 1) and* op = int_bound 4
    and* w = oneofa words and* c = char in
    let t = toks.(k) and toks = Array.copy toks in
    toks.(k) <-
      (match op with
       | 0 -> w                         (* swap in another name *)
       | 1 -> ""                        (* drop the token *)
       | 2 -> t ^ " " ^ t               (* repeat it *)
       | 3 -> String.make 1 c           (* overwrite with a random byte *)
       | _ -> t ^ String.make 1 c);     (* insert a random byte *)
    return toks
  in
  let rec go k toks = if k = 0 then return toks else step toks >>= go (k - 1) in
  let* k = int_range 1 4 in
  map (fun toks -> String.concat "" (Array.to_list toks)) (go k toks)

let no_rule_crash d =
  List.for_all
    (fun ((dg : Diag.t), _) -> not (String.starts_with ~prefix:"rule crashed:" dg.Diag.message))
    (run d).Engine.diags

let verilog_bases =
  lazy
    (List.map
       (fun f -> In_channel.with_open_bin (example f) In_channel.input_all)
       [ "lint_viol.v"; "lint_clean.v" ])

let prop_verilog_total =
  let gen st =
    let bases = Lazy.force verilog_bases in
    mutant (List.nth bases (Random.State.int st (List.length bases))) st
  in
  QCheck.Test.make ~name:"verilog reader and lint are total on mutants" ~count:3000
    (QCheck.make ~print:Fun.id gen)
    (fun src ->
      match Netlist.Verilog.parse src with
      | d -> no_rule_crash d
      | exception Netlist.Verilog.Parse_error _ -> true)

let prop_iscas_total =
  QCheck.Test.make ~name:"bench reader and lint are total on mutants" ~count:1000
    (QCheck.make ~print:Fun.id (fun st -> mutant Test_iscas.s27 st))
    (fun src ->
      match Circuits.Iscas.parse src with
      | d -> no_rule_crash d
      | exception Circuits.Iscas.Parse_error _ -> true)

(* --- typed-error satellites ---------------------------------------- *)

let test_perfgate_typed_error () =
  let bad = Filename.temp_file "tpi_badbase" ".json" in
  let oc = open_out bad in
  output_string oc "not json at all";
  close_out oc;
  (match
     Obs.Perfgate.check ~directions:[] ~baseline_path:bad ~current_path:bad
       ~tolerance_pct:10.0
   with
   | _ -> Alcotest.fail "invalid baseline accepted"
   | exception Obs.Perfgate.Invalid_baseline _ -> ());
  Sys.remove bad

let test_inject_printer () =
  let s = Printexc.to_string (Flow.Inject.No_candidate "no scan chain to break") in
  Alcotest.(check bool) "registered printer used" true
    (contains s "no scan chain to break")

let suite =
  [ Alcotest.test_case "clean design is quiet" `Quick test_clean_design;
    Alcotest.test_case "rule registry" `Quick test_registry;
    Alcotest.test_case "stats cover every rule" `Quick test_stats_cover_rules;
    Alcotest.test_case "struct.comb-loop" `Quick test_comb_loop;
    Alcotest.test_case "struct.multi-driver" `Quick test_multi_driver;
    Alcotest.test_case "struct.undriven-net + unloaded-output" `Quick
      test_undriven_and_unloaded;
    Alcotest.test_case "struct.floating-input" `Quick test_floating_input;
    Alcotest.test_case "struct.unbound-port" `Quick test_unbound_port;
    Alcotest.test_case "struct.dangling-ff" `Quick test_dangling_ff;
    Alcotest.test_case "struct.arity-mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "clock.ff-no-domain" `Quick test_ff_no_domain;
    Alcotest.test_case "clock.ff-clock-mismatch" `Quick test_ff_clock_mismatch;
    Alcotest.test_case "clock.cdc-unsynced" `Quick test_cdc_unsynced;
    Alcotest.test_case "clock.cdc direct hop quiet" `Quick test_cdc_direct_hop_quiet;
    Alcotest.test_case "clock.tp-domain" `Quick test_tp_domain;
    Alcotest.test_case "tp insertion is lint-clean" `Quick test_tp_insertion_is_clean;
    Alcotest.test_case "scan.chain-stitch structural" `Quick
      test_chain_stitch_structural;
    Alcotest.test_case "scan.chain-stitch vs plan" `Quick test_chain_stitch_with_plan;
    Alcotest.test_case "scan.lockup-crossing" `Quick test_lockup_crossing;
    Alcotest.test_case "tpi.critical-path estimate" `Quick test_critical_path_estimate;
    Alcotest.test_case "tpi.critical-path near-critical warn" `Quick
      test_near_critical_warns;
    Alcotest.test_case "tpi.critical-path via STA artifact" `Quick
      test_critical_path_sta_artifact;
    Alcotest.test_case "tpi.density" `Quick test_density_envelope;
    Alcotest.test_case "tpi.low-observability (COP)" `Quick test_low_observability_cop;
    Alcotest.test_case "tpi.low-observability (redundant)" `Quick
      test_low_observability_redundant;
    Alcotest.test_case "rule crash contained" `Quick test_rule_crash_contained;
    Alcotest.test_case "gate raises Lint_failed" `Quick test_gate;
    Alcotest.test_case "lint is read-only" `Quick test_read_only;
    Alcotest.test_case "guard maps preflight to lint-failed" `Quick
      test_guard_preflight;
    Alcotest.test_case "waiver fingerprints survive renames" `Quick
      test_waiver_rename_stable;
    Alcotest.test_case "occurrence qualifiers split twins" `Quick
      test_waiver_occurrence_split;
    Alcotest.test_case "waiver apply + stale" `Quick test_waiver_apply_and_stale;
    Alcotest.test_case "waiver file round-trip" `Quick test_waiver_file_roundtrip;
    Alcotest.test_case "text emitter" `Quick test_text_emitter;
    Alcotest.test_case "json emitter" `Quick test_json_emitter;
    Alcotest.test_case "sarif emitter" `Quick test_sarif_emitter;
    Alcotest.test_case "example netlists pinned" `Quick test_example_fixtures;
    Alcotest.test_case "perfgate invalid baseline is typed" `Quick
      test_perfgate_typed_error;
    Alcotest.test_case "inject no-candidate printer" `Quick test_inject_printer ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_verilog_total; prop_iscas_total ]
