(* stdcell: LUTs, cells, logic functions, library *)
module Cell = Stdcell.Cell
module Lut = Stdcell.Lut
module Lib = Stdcell.Library

let lib = Lib.default

let test_lut_grid_exact () =
  let slews = [| 10.0; 100.0 |] and loads = [| 0.0; 50.0 |] in
  let t = Lut.make ~slews ~loads ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Helpers.check_approx "corner" 1.0 (Lut.corner t);
  Helpers.check_approx "grid 00" 1.0 (Lut.value t ~slew:10.0 ~load:0.0);
  Helpers.check_approx "grid 11" 4.0 (Lut.value t ~slew:100.0 ~load:50.0);
  Helpers.check_approx "bilinear center" 2.5 (Lut.value t ~slew:55.0 ~load:25.0)

let test_lut_extrapolation_flag () =
  let slews = [| 10.0; 100.0 |] and loads = [| 0.0; 50.0 |] in
  let t = Lut.make ~slews ~loads ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let inside = Lut.eval t ~slew:50.0 ~load:25.0 in
  Alcotest.(check bool) "inside not flagged" false inside.Lut.extrapolated;
  let outside = Lut.eval t ~slew:50.0 ~load:100.0 in
  Alcotest.(check bool) "outside flagged" true outside.Lut.extrapolated;
  (* linear extrapolation from the border segment *)
  Helpers.check_approx "extrapolated value" 3.5 (Lut.value t ~slew:10.0 ~load:125.0)

let test_lut_bad_axes () =
  Alcotest.check_raises "non-increasing axis"
    (Invalid_argument "Lut.make slews: axis not increasing") (fun () ->
      ignore (Lut.make ~slews:[| 2.0; 1.0 |] ~loads:[| 0.0 |] ~values:[| [| 0. |]; [| 0. |] |]))

(* the allocation-free kernel against the record-returning oracle it
   replaced, bit for bit: on and between grid points, past every side of
   the table, and on tables whose slew or load axis has one point *)
let prop_lut_interp_matches_oracle =
  let axis n =
    QCheck.Gen.(
      map2
        (fun start steps ->
          let a = Array.make n start in
          List.iteri (fun i s -> a.(i + 1) <- a.(i) +. s) steps;
          a)
        (float_range (-50.0) 200.0)
        (list_repeat (n - 1) (float_range 0.5 100.0)))
  in
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun ns ->
      int_range 1 4 >>= fun nl ->
      quad (axis ns) (axis nl)
        (array_repeat ns (array_repeat nl (float_range (-10.0) 500.0)))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
  in
  let print (slews, loads, _, (fu, fv)) =
    let fs a = String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
    Printf.sprintf "slews=[%s] loads=[%s] f=(%h,%h)" (fs slews) (fs loads) fu fv
  in
  QCheck.Test.make ~name:"Lut.interp = reference lookup, bitwise" ~count:500
    (QCheck.make ~print gen) (fun (slews, loads, values, (fu, fv)) ->
      let check ~slews ~loads ~values =
        let lo a = a.(0) and hi a = a.(Array.length a - 1) in
        let inside a f = lo a +. (f *. (hi a -. lo a)) in
        let s_in = inside slews fu and l_in = inside loads fv in
        let below a = lo a -. 37.5 and above a = hi a +. 41.25 in
        let points =
          [ (s_in, l_in);
            (below slews, l_in); (above slews, l_in);
            (s_in, below loads); (s_in, above loads);
            (below slews, above loads); (above slews, below loads) ]
          @ List.concat_map
              (fun s -> List.map (fun l -> (s, l)) (Array.to_list loads))
              (Array.to_list slews)
        in
        let t = Lut.make ~slews ~loads ~values in
        let buf = Array.make 3 0.0 in
        List.for_all
          (fun (slew, load) ->
            let value, extrapolated = Sta_reference.lut_eval ~slews ~loads ~values ~slew ~load in
            buf.(0) <- slew;
            buf.(1) <- load;
            let flag = Lut.interp t buf in
            let e = Lut.eval t ~slew ~load in
            Int64.bits_of_float buf.(2) = Int64.bits_of_float value
            && flag = extrapolated
            && Int64.bits_of_float e.Lut.value = Int64.bits_of_float value
            && e.Lut.extrapolated = extrapolated)
          points
      in
      check ~slews ~loads ~values
      && check ~slews:[| slews.(0) |] ~loads ~values:[| values.(0) |]
      && check ~slews ~loads:[| loads.(0) |]
           ~values:(Array.map (fun row -> [| row.(0) |]) values))

let test_eval64_truth_tables () =
  let t = -1L and f = 0L in
  Alcotest.(check int64) "nand2" (-1L) (Cell.eval64 Cell.Nand2 [| t; f |]);
  Alcotest.(check int64) "nand2 both" 0L (Cell.eval64 Cell.Nand2 [| t; t |]);
  Alcotest.(check int64) "xor2" (-1L) (Cell.eval64 Cell.Xor2 [| t; f |]);
  Alcotest.(check int64) "aoi21" 0L (Cell.eval64 Cell.Aoi21 [| t; t; f |]);
  Alcotest.(check int64) "oai21" (-1L) (Cell.eval64 Cell.Oai21 [| t; f; f |]);
  Alcotest.(check int64) "mux sel a" (-1L) (Cell.eval64 Cell.Mux2 [| t; f; f |]);
  Alcotest.(check int64) "mux sel b" 0L (Cell.eval64 Cell.Mux2 [| t; f; t |]);
  Alcotest.(check int64) "tiehi" (-1L) (Cell.eval64 Cell.Tiehi [||])

let comb_kinds =
  [ Cell.Inv; Cell.Buf; Cell.Nand2; Cell.Nand3; Cell.Nor2; Cell.Nor3; Cell.And2;
    Cell.Or2; Cell.Xor2; Cell.Xnor2; Cell.Aoi21; Cell.Oai21; Cell.Mux2 ]

let prop_eval3_matches_eval_ternary =
  let kind_gen = QCheck.Gen.oneofl comb_kinds in
  let tern_gen = QCheck.Gen.oneofl [ 0; 1; 2 ] in
  let gen = QCheck.Gen.(quad kind_gen tern_gen tern_gen tern_gen) in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"eval3 agrees with eval_ternary" ~count:2000 arb
    (fun (kind, a, b, c) ->
      let arity = Cell.num_inputs kind in
      let of_int = function
        | 0 -> Cell.Zero
        | 1 -> Cell.One
        | _ -> Cell.Unknown
      in
      let args = [| a; b; c |] in
      let inputs = Array.init arity (fun i -> of_int args.(i)) in
      let expected =
        match Cell.eval_ternary kind inputs with
        | Cell.Zero -> 0
        | Cell.One -> 1
        | Cell.Unknown -> 2
      in
      Cell.eval3 kind a b c = expected)

let prop_eval3_refines_eval64 =
  let kind_gen = QCheck.Gen.oneofl comb_kinds in
  let bool3 = QCheck.Gen.oneofl [ 0; 1 ] in
  let arb = QCheck.make QCheck.Gen.(quad kind_gen bool3 bool3 bool3) in
  QCheck.Test.make ~name:"eval3 on known values equals eval64" ~count:1000 arb
    (fun (kind, a, b, c) ->
      let arity = Cell.num_inputs kind in
      let args = [| a; b; c |] in
      let words = Array.init arity (fun i -> if args.(i) = 1 then -1L else 0L) in
      let expected = if Int64.logand (Cell.eval64 kind words) 1L = 1L then 1 else 0 in
      Cell.eval3 kind a b c = expected)

(* PODEM evaluates gates through tables filled from eval3 while fault
   simulation and backtrace use eval64: on every definite assignment the two
   must agree, for every combinational kind, whatever the unused positions
   hold *)
let test_eval3_equals_eval64 () =
  List.iter
    (fun kind ->
      let arity = Cell.num_inputs kind in
      for mask = 0 to 7 do
        let bit i = (mask lsr i) land 1 in
        let words = Array.init arity (fun i -> if bit i = 1 then -1L else 0L) in
        let expected = Int64.to_int (Int64.logand (Cell.eval64 kind words) 1L) in
        Alcotest.(check int)
          (Printf.sprintf "%s %d%d%d" (Cell.kind_name kind) (bit 0) (bit 1) (bit 2))
          expected
          (Cell.eval3 kind (bit 0) (bit 1) (bit 2))
      done)
    (Cell.Clkbuf :: Cell.Tiehi :: Cell.Tielo :: comb_kinds)

let test_library_lookup () =
  let nand = Lib.find lib Cell.Nand2 ~drive:2 in
  Alcotest.(check string) "name" "NAND2X2" nand.Cell.name;
  Alcotest.(check int) "pins" 3 (Array.length nand.Cell.pins);
  Alcotest.(check bool) "by_name" true (Lib.by_name lib "INVX1" <> None);
  Alcotest.(check bool) "unknown" true (Lib.by_name lib "FOO" = None)

let test_library_upsize () =
  let x1 = Lib.find lib Cell.Inv ~drive:1 in
  match Lib.upsize lib x1 with
  | None -> Alcotest.fail "INVX1 should upsize"
  | Some x2 ->
    Alcotest.(check int) "next drive" 2 x2.Cell.drive;
    Alcotest.(check bool) "wider" true (x2.Cell.width > x1.Cell.width);
    let x8 = Lib.find lib Cell.Inv ~drive:8 in
    Alcotest.(check bool) "x8 tops out" true (Lib.upsize lib x8 = None)

let test_tsff_cell_arcs () =
  let tsff = Lib.find lib Cell.Tsff ~drive:1 in
  Alcotest.(check int) "6 pins" 6 (Array.length tsff.Cell.pins);
  let app =
    List.filter (fun (a : Cell.arc) -> not a.Cell.test_only) (Array.to_list tsff.Cell.arcs)
  in
  (* exactly one application-mode arc: the transparent D -> Q path *)
  Alcotest.(check int) "one app arc" 1 (List.length app);
  Alcotest.(check int) "from D" 0 (List.hd app).Cell.from_pin;
  Alcotest.(check bool) "sequential" true tsff.Cell.sequential

let test_drive_scaling_monotone () =
  let d1 = Lib.find lib Cell.Nand2 ~drive:1 and d4 = Lib.find lib Cell.Nand2 ~drive:4 in
  let delay c load =
    Lut.value (c.Cell.arcs.(0)).Cell.delay ~slew:50.0 ~load
  in
  Alcotest.(check bool) "stronger drive is faster under load" true
    (delay d4 40.0 < delay d1 40.0);
  Alcotest.(check bool) "stronger drive is bigger" true (d4.Cell.width > d1.Cell.width)

let test_fillers () =
  let fs = Lib.fillers lib in
  Alcotest.(check int) "three fillers" 3 (List.length fs);
  let widths = List.map (fun (c : Cell.t) -> c.Cell.width) fs in
  Alcotest.(check bool) "descending" true (widths = List.sort (fun a b -> compare b a) widths)

let test_wide_input_names () =
  Alcotest.(check (list string)) "arity 6"
    [ "A"; "B"; "C"; "D"; "E"; "F" ]
    (Lib.input_names ~arity:6 Cell.Nand2);
  Alcotest.(check (list string)) "mux keeps its select pin" [ "A"; "B"; "S" ]
    (Lib.input_names Cell.Mux2);
  let names = Lib.input_names ~arity:60 Cell.And2 in
  Alcotest.(check int) "arity 60" 60 (List.length names);
  Alcotest.(check string) "spreadsheet spill at 26" "AA" (List.nth names 26);
  Alcotest.(check string) "index 59" "BH" (List.nth names 59);
  Alcotest.(check int) "all names distinct" 60
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "negative arity rejected" true
    (try
       ignore (Lib.input_names ~arity:(-1) Cell.Nand2);
       false
     with Invalid_argument _ -> true)

let test_wide_gate_construction () =
  (* build a 6-input NAND the way the library builds its cells and wire it
     into a checked design: wide gates must survive the netlist DRCs *)
  let names = Lib.input_names ~arity:6 Cell.Nand2 in
  let pins =
    Array.of_list
      (List.map (fun n -> Stdcell.Pin.input n ~cap:2.0) names
      @ [ Stdcell.Pin.output "Y" ])
  in
  let wide =
    { Cell.name = "NAND6X1"; kind = Cell.Nand2; drive = 1; width = 3.2; pins;
      arcs = [||]; setup = 0.0; hold = 0.0; sequential = false }
  in
  Alcotest.(check int) "output pin after 6 inputs" 6 (Cell.output_pin wide);
  let module D = Netlist.Design in
  let d = D.create "wide" in
  let g = D.add_instance d ~name:"g0" ~cell:wide in
  List.iteri
    (fun k _ ->
      let pi = D.add_port d (Printf.sprintf "pi%d" k) D.In in
      D.connect d ~inst:g.D.id ~pin:k ~net:pi.D.pnet)
    names;
  let y = D.add_net d "y" in
  D.connect d ~inst:g.D.id ~pin:6 ~net:y.D.nid;
  let po = D.add_port d "po" D.Out in
  D.connect_out_port d ~port:po.D.pid ~net:y.D.nid;
  Netlist.Check.assert_clean d;
  Alcotest.(check int) "six sinks recorded" 6
    (List.fold_left
       (fun acc (p : D.port) ->
         acc + List.length (D.net d p.D.pnet).D.sinks)
       0
       (D.input_ports d))

let suite =
  [ Alcotest.test_case "lut grid exact" `Quick test_lut_grid_exact;
    Alcotest.test_case "lut extrapolation" `Quick test_lut_extrapolation_flag;
    Alcotest.test_case "lut bad axes" `Quick test_lut_bad_axes;
    Alcotest.test_case "eval64 truth tables" `Quick test_eval64_truth_tables;
    Alcotest.test_case "eval3 equals eval64" `Quick test_eval3_equals_eval64;
    Alcotest.test_case "library lookup" `Quick test_library_lookup;
    Alcotest.test_case "library upsize" `Quick test_library_upsize;
    Alcotest.test_case "tsff arcs" `Quick test_tsff_cell_arcs;
    Alcotest.test_case "drive scaling" `Quick test_drive_scaling_monotone;
    Alcotest.test_case "fillers" `Quick test_fillers;
    Alcotest.test_case "wide input names" `Quick test_wide_input_names;
    Alcotest.test_case "wide gate construction" `Quick test_wide_gate_construction;
    QCheck_alcotest.to_alcotest prop_eval3_matches_eval_ternary;
    QCheck_alcotest.to_alcotest prop_eval3_refines_eval64;
    QCheck_alcotest.to_alcotest prop_lut_interp_matches_oracle ]
