(* circuits.Iscas: the .bench reader, on ISCAS'89 s27 *)

let s27 = {|
# s27 benchmark (ISCAS'89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
|}

let test_s27_structure () =
  let d = Circuits.Iscas.parse ~name:"s27" s27 in
  Netlist.Check.assert_clean d;
  let stats = Netlist.Stats.compute d in
  Alcotest.(check int) "3 flip-flops" 3 stats.Netlist.Stats.ffs;
  (* 2x NOT, AND, 2x OR, NAND, 4x NOR = 10 combinational gates *)
  Alcotest.(check int) "10 gates" 10 stats.Netlist.Stats.combinational;
  Alcotest.(check int) "one domain" 1 (Array.length d.Netlist.Design.domains)

let test_s27_runs_the_flow () =
  let d = Circuits.Iscas.parse ~name:"s27" s27 in
  let options =
    { Flow.Pipeline.default_options with
      Flow.Pipeline.chain_config = Scan.Chains.Max_length 4 }
  in
  let r = Helpers.run_flow ~circuit:"s27" ~options d in
  (match r.Flow.Pipeline.atpg with
   | Some o ->
     Alcotest.(check bool) "full coverage on s27" true (o.Atpg.Patgen.fault_coverage > 0.95)
   | None -> Alcotest.fail "no atpg");
  Alcotest.(check bool) "timed" true (r.Flow.Pipeline.sta.Sta.Analysis.worst <> None)

let test_nary_decomposition () =
  let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = NAND(a, b, c, d)\n" in
  let d = Circuits.Iscas.parse src in
  Netlist.Check.assert_clean d;
  (* 4-input NAND -> 3 AND2 + INV = 4 cells *)
  Alcotest.(check int) "cells" 4 (Netlist.Design.num_insts d)

let test_parse_errors () =
  Alcotest.(check bool) "bad gate" true
    (try ignore (Circuits.Iscas.parse "INPUT(a)\ny = FROB(a)\n"); false
     with Circuits.Iscas.Parse_error _ -> true);
  Alcotest.(check bool) "garbage" true
    (try ignore (Circuits.Iscas.parse "INPUT(a)\nwat\n"); false
     with Circuits.Iscas.Parse_error _ -> true)

let test_redefined_output () =
  (* s27 already defines G9 = NAND(G16, G15) *)
  let src = s27 ^ "G9 = NOR(G0)\n" in
  let last_line = List.length (String.split_on_char '\n' src) - 1 in
  match Circuits.Iscas.parse src with
  | _ -> Alcotest.fail "second driver of G9 accepted"
  | exception Circuits.Iscas.Parse_error (line, msg) ->
    Alcotest.(check int) "line of the redefinition" last_line line;
    Alcotest.(check bool) "names the net" true (Astring_contains.contains msg "G9")

let suite =
  [ Alcotest.test_case "s27 structure" `Quick test_s27_structure;
    Alcotest.test_case "s27 through the flow" `Quick test_s27_runs_the_flow;
    Alcotest.test_case "n-ary decomposition" `Quick test_nary_decomposition;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "redefined gate output" `Quick test_redefined_output ]
