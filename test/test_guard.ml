(* guard: typed stage errors, policies, layout checks, fault injection *)
module G = Flow.Guard
module P = Flow.Pipeline
module I = Flow.Inject

let tiny_options =
  { P.default_options with
    P.tp_percent = 2.0;
    chain_config = Scan.Chains.Max_length 10;
    run_atpg = false }

let mk_tiny () = Circuits.Bench.tiny ~ffs:40 ~gates:500 ()

let test_guarded_flow_completes () =
  let r = G.run ~options:tiny_options ~circuit:"tiny" mk_tiny in
  Alcotest.(check bool) "succeeded" true (G.succeeded r);
  Alcotest.(check bool) "has result" true (r.G.result <> None);
  Alcotest.(check int) "one attempt" 1 r.G.attempts;
  Alcotest.(check int) "seven stages logged" 7 (List.length r.G.stage_log);
  Alcotest.(check int) "all completed" 7 (List.length (G.completed_stages r));
  List.iter
    (fun (_, st) ->
      match st with
      | G.Completed ms -> Alcotest.(check bool) "time >= 0" true (ms >= 0.0)
      | _ -> Alcotest.fail "expected completed stage")
    r.G.stage_log

let test_injection_matrix () =
  let outcomes = I.selftest () in
  Alcotest.(check int) "eleven classes" 11 (List.length outcomes);
  List.iter
    (fun (o : I.outcome) ->
      (* every class must land in the expected stage with the expected
         error-class tag — and as a typed error, not an exception *)
      Alcotest.(check bool)
        (Printf.sprintf "%s detected and classified" (I.name o.I.mutation))
        true o.I.detected)
    outcomes;
  Alcotest.(check bool) "matrix passes" true (I.all_detected outcomes)

let test_recover_converges () =
  Alcotest.(check bool) "recover reseeds placement and converges" true
    (I.recover_converges ())

let test_recover_exhausts () =
  (* placement always crashes: Recover must give up after its retry budget
     and report the typed error instead of raising *)
  let tamper ~attempt:_ stage _ =
    if stage = G.Placement then failwith "always crashing"
  in
  let r =
    G.run ~policy:G.Recover ~retries:2 ~options:tiny_options ~tamper ~circuit:"tiny"
      mk_tiny
  in
  Alcotest.(check bool) "failed" false (G.succeeded r);
  Alcotest.(check int) "3 attempts (1 + 2 retries)" 3 r.G.attempts;
  (match r.G.error with
   | Some e -> Alcotest.(check bool) "failed in placement" true (e.G.stage = G.Placement)
   | None -> Alcotest.fail "expected an error")

let test_degrade_keeps_partials () =
  Alcotest.(check bool) "degrade keeps placed/routed head stages" true
    (I.degrade_keeps_partials ())

let test_fail_fast_drops_state () =
  let tamper ~attempt:_ stage _ = if stage = G.Extract then failwith "boom" in
  let r = G.run ~policy:G.Fail_fast ~options:tiny_options ~tamper ~circuit:"tiny" mk_tiny in
  Alcotest.(check bool) "failed" false (G.succeeded r);
  Alcotest.(check bool) "no partial state under fail-fast" true (r.G.state = None)

let test_non_seed_sensitive_not_retried () =
  (* a crash in extraction is not seed-sensitive: Recover must not retry *)
  let tamper ~attempt:_ stage _ = if stage = G.Extract then failwith "boom" in
  let r = G.run ~policy:G.Recover ~options:tiny_options ~tamper ~circuit:"tiny" mk_tiny in
  Alcotest.(check bool) "failed" false (G.succeeded r);
  Alcotest.(check int) "single attempt" 1 r.G.attempts

let test_sweep_degrade_continues () =
  (* STA "crashes" at the 2% level only: the guarded sweep must keep the
     other levels, flag the degraded row, and still render the tables *)
  let tamper ~attempt:_ stage (st : P.state) =
    if stage = G.Sta && st.P.s_options.P.tp_percent = 2.0 then
      failwith "injected STA crash"
  in
  let grows =
    Flow.Experiment.sweep ~policy:G.Degrade ~tamper ~with_atpg:false
      ~tp_levels:[ 0; 1; 2 ] (Flow.Experiment.spec_for ~scale:0.04 "s38417")
  in
  Alcotest.(check int) "three levels attempted" 3 (List.length grows);
  let ok = Flow.Experiment.completed_rows grows in
  let bad = Flow.Experiment.degraded_rows grows in
  Alcotest.(check int) "two levels completed" 2 (List.length ok);
  Alcotest.(check int) "one level degraded" 1 (List.length bad);
  (match bad with
   | [ g ] ->
     Alcotest.(check int) "the 2% level failed" 2 g.Flow.Experiment.g_tp_pct;
     (match g.Flow.Experiment.g_report.G.error with
      | Some e -> Alcotest.(check bool) "failed at sta" true (e.G.stage = G.Sta)
      | None -> Alcotest.fail "degraded row carries no error")
   | _ -> Alcotest.fail "expected exactly one degraded row");
  let t2 = Flow.Report.table2 ok in
  Alcotest.(check bool) "table renders from survivors" true
    (Astring_contains.contains t2 "core um2");
  let s = Flow.Report.guarded_summary grows in
  Alcotest.(check bool) "summary flags degraded row" true
    (Astring_contains.contains s "DEGRADED");
  Alcotest.(check bool) "summary names the stage" true (Astring_contains.contains s "sta")

let test_sweep_policies () =
  (* placement fails at the 2% level only; [seen] records every level
     whose flow got as far as a stage *)
  let seen = ref [] in
  let tamper ~attempt:_ stage (st : P.state) =
    let tp = st.P.s_options.P.tp_percent in
    if not (List.mem tp !seen) then seen := tp :: !seen;
    if stage = G.Placement && tp = 2.0 then failwith "injected placement crash"
  in
  let spec = Flow.Experiment.spec_for ~scale:0.04 "s38417" in
  let sweep policy =
    seen := [];
    Flow.Experiment.sweep ~policy ~tamper ~with_atpg:false ~tp_levels:[ 0; 1; 2; 3 ] spec
  in
  let levels grows = List.map (fun g -> g.Flow.Experiment.g_tp_pct) grows in
  let degraded grows =
    Flow.Report.render ~tables:[ 2 ] grows
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"DEGRADED")
  in
  let ff = sweep G.Fail_fast in
  Alcotest.(check (list int)) "fail-fast stops at the failed level" [ 0; 1; 2 ] (levels ff);
  Alcotest.(check bool) "fail-fast runs no later level" false (List.mem 3.0 !seen);
  Alcotest.(check int) "fail-fast: the failed level is the last row" 1
    (List.length (Flow.Experiment.degraded_rows ff));
  let dg = sweep G.Degrade in
  Alcotest.(check (list int)) "degrade attempts every level" [ 0; 1; 2; 3 ] (levels dg);
  Alcotest.(check int) "degrade: one DEGRADED line" 1 (List.length (degraded dg))

let test_sta_typed_exceptions () =
  (* wire a 2-cycle directly and check the typed exception carries the
     offending instance *)
  let d = mk_tiny () in
  let r = Helpers.run_flow ~options:tiny_options d in
  let module D = Netlist.Design in
  let module C = Stdcell.Cell in
  let g1 = ref None and g2 = ref None in
  D.iter_insts d (fun i ->
      let comb =
        match i.D.cell.C.kind with
        | C.Nand2 | C.Nor2 | C.And2 | C.Or2 | C.Xor2 -> true
        | _ -> false
      in
      if comb then
        if !g1 = None then g1 := Some i
        else if !g2 = None then g2 := Some i);
  (match (!g1, !g2) with
   | Some a, Some b ->
     let oa = D.net_of_output d a and ob = D.net_of_output d b in
     D.disconnect d ~inst:a.D.id ~pin:0;
     D.connect d ~inst:a.D.id ~pin:0 ~net:ob;
     D.disconnect d ~inst:b.D.id ~pin:0;
     D.connect d ~inst:b.D.id ~pin:0 ~net:oa;
     (match Sta.Tgraph.run d r.P.rc with
      | _ -> Alcotest.fail "expected Combinational_cycle"
      | exception Sta.Analysis.Combinational_cycle { inst; iname } ->
        Alcotest.(check bool) "carries an instance" true (inst >= 0 && iname <> ""))
   | _ -> Alcotest.fail "no combinational gates in tiny circuit")

let test_layout_check_clean_flow () =
  let d = mk_tiny () in
  let st = P.init ~options:tiny_options d in
  P.stage_tpi_scan st;
  P.stage_place st;
  let pl = Option.get st.P.s_products.P.placement in
  Alcotest.(check int) "clean placement" 0
    (List.length (Layout.Check.check_placement ~overlaps:true pl));
  P.stage_reorder_atpg st;
  Alcotest.(check bool) "chains verify" true
    (Scan.Chains.verify d (Option.get st.P.s_products.P.chains) = None);
  P.stage_eco_route st;
  Alcotest.(check int) "clean route" 0
    (List.length (Layout.Check.check_route pl (Option.get st.P.s_products.P.route)));
  P.stage_extract st;
  Alcotest.(check int) "clean rc" 0
    (List.length (Layout.Check.check_rc (Option.get st.P.s_products.P.rc)))

let test_staged_equals_straightline () =
  let run_guarded () =
    let d = mk_tiny () in
    let r = Helpers.run_flow ~options:tiny_options d in
    Option.value ~default:0.0 (Sta.Analysis.worst_tcp r.P.sta)
  in
  let run_staged () =
    let d = mk_tiny () in
    let st = P.init ~options:tiny_options d in
    P.stage_tpi_scan st;
    P.stage_place st;
    P.stage_reorder_atpg st;
    P.stage_eco_route st;
    P.stage_extract st;
    P.stage_sta st;
    let r = P.finish st in
    Option.value ~default:0.0 (Sta.Analysis.worst_tcp r.P.sta)
  in
  Helpers.check_approx "stage-by-stage flow = guarded flow" (run_guarded ()) (run_staged ())

(* the one-runner contract: result_exn is the report's outcome, with a
   failed run's error raised as-is *)
let test_result_exn () =
  let ok = G.run ~options:tiny_options ~circuit:"tiny" mk_tiny in
  (match G.outcome ok with
   | Ok res ->
     Alcotest.(check bool) "returns the completed result" true (G.result_exn ok == res)
   | Error e -> Alcotest.failf "clean flow failed: %s" e.G.detail);
  let tamper ~attempt:_ stage _ = if stage = G.Extract then failwith "boom" in
  let bad = G.run ~options:tiny_options ~tamper ~circuit:"tiny" mk_tiny in
  match G.outcome bad with
  | Ok _ -> Alcotest.fail "tampered flow completed"
  | Error e ->
    (match G.result_exn bad with
     | _ -> Alcotest.fail "result_exn returned on a failed run"
     | exception G.Stage_failure e' ->
       Alcotest.(check bool) "raises the outcome's error" true (e = e');
       Alcotest.(check bool) "at the failing stage" true (e'.G.stage = G.Extract))

(* the random-ECO property's fixture at the seeds where placement used to
   overfill a row (outside-core) and where the generator used to leave a
   flip-flop output sink-less (dangling-output): all four complete under
   the guard's checks *)
let test_tiny_fixtures_complete () =
  let options =
    { P.default_options with P.tp_percent = 1.0; run_atpg = false }
  in
  List.iter
    (fun seed ->
      let r =
        G.run ~options ~circuit:(Printf.sprintf "tiny-%d" seed) (fun () ->
            Circuits.Bench.tiny ~seed ~ffs:30 ~gates:250 ())
      in
      match r.G.error with
      | None -> ()
      | Some e -> Alcotest.failf "seed %d: %a" seed G.pp_stage_error e)
    [ 12; 196; 257; 280 ]

let test_policy_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (G.policy_name p) true
        (G.policy_of_string (G.policy_name p) = Some p))
    [ G.Fail_fast; G.Recover; G.Degrade ];
  Alcotest.(check bool) "junk rejected" true (G.policy_of_string "yolo" = None)

let test_stage_out_of_order () =
  let d = mk_tiny () in
  let st = P.init ~options:tiny_options d in
  Alcotest.(check bool) "sta before place rejected" true
    (try P.stage_sta st; false with Invalid_argument _ -> true)

let test_check_failed_classified () =
  (* a stage tripping the netlist DRCs surfaces as a typed "check-failed"
     stage error, not an anonymous Failure *)
  let vs = [ Netlist.Check.Undriven_net 3; Netlist.Check.Floating_input (1, 0) ] in
  let tamper ~attempt:_ stage _ =
    if stage = G.Extract then raise (Netlist.Check.Check_failed vs)
  in
  let r = G.run ~options:tiny_options ~tamper ~circuit:"tiny" mk_tiny in
  Alcotest.(check bool) "failed" false (G.succeeded r);
  match r.G.error with
  | None -> Alcotest.fail "expected a stage error"
  | Some e ->
    Alcotest.(check bool) "classified as check-failed" true
      (Astring_contains.contains e.G.detail "check-failed: 2 violation(s)");
    Alcotest.(check bool) "first class named" true
      (Astring_contains.contains e.G.detail "undriven-net")

(* a design too small to generate is a typed row of the sweep, not a hang
   or an escaped exception; a scale that is not positive and finite is
   rejected before any sweep starts *)
let test_sweep_generation_error () =
  let module E = Flow.Experiment in
  (match E.sweep ~with_atpg:false ~tp_levels:[ 0 ] (E.spec_for ~scale:0.005 "s38417") with
   | [ g ] ->
     (match g.E.g_report.G.error with
      | Some e -> Alcotest.(check string) "error class" "design-generation" (G.error_class e)
      | None -> Alcotest.fail "generation at scale 0.005 succeeded")
   | grows -> Alcotest.failf "%d rows for one level" (List.length grows));
  List.iter
    (fun scale ->
      Alcotest.(check bool)
        (Printf.sprintf "scale %g rejected" scale)
        true
        (match E.spec_for ~scale "s38417" with
         | _ -> false
         | exception Invalid_argument _ -> true))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let suite =
  [ Alcotest.test_case "guarded flow completes" `Quick test_guarded_flow_completes;
    Alcotest.test_case "injection matrix" `Slow test_injection_matrix;
    Alcotest.test_case "recover converges" `Quick test_recover_converges;
    Alcotest.test_case "recover exhausts retries" `Quick test_recover_exhausts;
    Alcotest.test_case "degrade keeps partials" `Quick test_degrade_keeps_partials;
    Alcotest.test_case "fail-fast drops state" `Quick test_fail_fast_drops_state;
    Alcotest.test_case "extract crash not retried" `Quick test_non_seed_sensitive_not_retried;
    Alcotest.test_case "degraded sweep continues" `Slow test_sweep_degrade_continues;
    Alcotest.test_case "sweep stops under fail-fast only" `Slow test_sweep_policies;
    Alcotest.test_case "sta typed exceptions" `Quick test_sta_typed_exceptions;
    Alcotest.test_case "layout checks clean on healthy flow" `Quick
      test_layout_check_clean_flow;
    Alcotest.test_case "staged = straight-line" `Quick test_staged_equals_straightline;
    Alcotest.test_case "result_exn = outcome" `Quick test_result_exn;
    Alcotest.test_case "tiny fixtures complete" `Quick test_tiny_fixtures_complete;
    Alcotest.test_case "policy strings" `Quick test_policy_strings;
    Alcotest.test_case "stages enforce order" `Quick test_stage_out_of_order;
    Alcotest.test_case "check-failed classified" `Quick test_check_failed_classified;
    Alcotest.test_case "sweep reports generation errors" `Quick test_sweep_generation_error ]
