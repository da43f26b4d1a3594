(* circuits: profiles and the synthetic generator *)
module Design = Netlist.Design

let test_determinism () =
  let a = Circuits.Bench.tiny () and b = Circuits.Bench.tiny () in
  Alcotest.(check string) "identical netlists"
    (Netlist.Verilog.to_string a) (Netlist.Verilog.to_string b)

let test_seed_changes_netlist () =
  let a = Circuits.Bench.tiny ~seed:1 () and b = Circuits.Bench.tiny ~seed:2 () in
  Alcotest.(check bool) "different netlists" true
    (Netlist.Verilog.to_string a <> Netlist.Verilog.to_string b)

let test_profile_stats () =
  let d = Circuits.Bench.tiny ~ffs:30 ~gates:400 () in
  Netlist.Check.assert_clean d;
  let s = Netlist.Stats.compute d in
  Alcotest.(check int) "ff count exact" 30 s.Netlist.Stats.ffs;
  Alcotest.(check bool) "gates near budget" true
    (s.Netlist.Stats.combinational >= 350 && s.Netlist.Stats.combinational <= 500);
  Alcotest.(check bool) "acyclic" true (s.Netlist.Stats.logic_depth > 0)

let test_profile_validation () =
  let bad = { Circuits.Bench.s38417_profile with Circuits.Profile.num_pis = 0 } in
  Alcotest.(check bool) "rejected" true
    (try Circuits.Profile.validate bad; false with Invalid_argument _ -> true)

let test_scaling () =
  let p = Circuits.Profile.scale 0.5 Circuits.Bench.s38417_profile in
  Alcotest.(check int) "ffs halved" 818 p.Circuits.Profile.num_ffs;
  Alcotest.(check bool) "blocks scaled" true (p.Circuits.Profile.hard_blocks >= 1)

let test_fanout_bounded () =
  let d = Circuits.Bench.tiny ~gates:600 () in
  let clock_nets =
    Array.to_list (Array.map (fun (dom : Design.domain) -> dom.Design.clock_net) d.Design.domains)
  in
  Design.iter_nets d (fun n ->
      if not (List.mem n.Design.nid clock_nets) then
        Alcotest.(check bool) "fanout bounded" true (List.length n.Design.sinks <= 12))
  [@warning "-26"]

let test_named_circuits_exist () =
  List.iter
    (fun (name, _) ->
      let d = Circuits.Bench.by_name name ~scale:0.05 in
      Netlist.Check.assert_clean d;
      Alcotest.(check bool) "has domains" true (Array.length d.Design.domains >= 1))
    Circuits.Bench.default_scales

let test_pcore_a_two_domains () =
  let d = Circuits.Bench.pcore_a ~scale:0.05 () in
  Alcotest.(check int) "two clock domains" 2 (Array.length d.Design.domains);
  (* both domains actually hold flip-flops *)
  let counts = Array.make 2 0 in
  Design.iter_insts d (fun i ->
      if Design.is_ff i then counts.(i.Design.domain) <- counts.(i.Design.domain) + 1);
  Alcotest.(check bool) "both populated" true (counts.(0) > 0 && counts.(1) > 0)

let prop_generated_designs_clean =
  QCheck.Test.make ~name:"random profiles generate clean acyclic designs" ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 8 40))
    (fun (seed, ffs) ->
      let d = Circuits.Bench.tiny ~seed ~ffs ~gates:(ffs * 12) () in
      Netlist.Check.assert_clean d;
      (Netlist.Stats.compute d).Netlist.Stats.logic_depth > 0)

(* at these seeds a flip-flop's Q fed no gate, so the generator used to
   emit a sink-less output (dangling-output) *)
let test_no_sinkless_ff_output () =
  List.iter
    (fun seed ->
      let d = Circuits.Bench.tiny ~seed ~ffs:30 ~gates:250 () in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: netlist check clean" seed)
        0
        (List.length (Netlist.Check.run d)))
    [ 257; 280 ]

(* at these scales every level-0 net a gate may draw on is already among
   its inputs; the generator used to scan past its net pool forever *)
let test_tiny_scales_raise () =
  List.iter
    (fun (name, scale) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s at scale %g: generation error" name scale)
        true
        (match Circuits.Bench.by_name name ~scale with
         | _ -> false
         | exception Circuits.Synth.Generation_error _ -> true))
    [ ("s38417", 0.005); ("s38417", 0.0); ("s38417", -1.0); ("s38417", Float.nan);
      ("s38417", Float.infinity); ("pcore_a", 0.002); ("pcore_b", 0.001) ];
  Alcotest.(check int) "s38417 at scale 0.01 still generates" 303
    (Design.num_insts (Circuits.Bench.by_name "s38417" ~scale:0.01))

let suite =
  [ Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_netlist;
    Alcotest.test_case "profile stats" `Quick test_profile_stats;
    Alcotest.test_case "profile validation" `Quick test_profile_validation;
    Alcotest.test_case "scaling" `Quick test_scaling;
    Alcotest.test_case "fanout bounded" `Quick test_fanout_bounded;
    Alcotest.test_case "named circuits" `Quick test_named_circuits_exist;
    Alcotest.test_case "pcore_a domains" `Quick test_pcore_a_two_domains;
    Alcotest.test_case "no sink-less flip-flop output" `Quick test_no_sinkless_ff_output;
    Alcotest.test_case "tiny scales raise" `Quick test_tiny_scales_raise;
    QCheck_alcotest.to_alcotest prop_generated_designs_clean ]
