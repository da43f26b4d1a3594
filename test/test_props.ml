(* Cross-cutting property tests over randomly generated circuits. *)
module Design = Netlist.Design

let gen_circuit =
  QCheck.make
    ~print:(fun (seed, ffs, gates) -> Printf.sprintf "seed=%d ffs=%d gates=%d" seed ffs gates)
    QCheck.Gen.(triple (int_range 1 10_000) (int_range 8 48) (int_range 100 600))

let circuit_of (seed, ffs, gates) = Circuits.Bench.tiny ~seed ~ffs ~gates ()

let prop_verilog_roundtrip =
  QCheck.Test.make ~name:"verilog roundtrip preserves any generated design" ~count:10
    gen_circuit
    (fun spec ->
      let d = circuit_of spec in
      let d' = Netlist.Verilog.parse (Netlist.Verilog.to_string d) in
      Netlist.Check.assert_clean d';
      let s = Netlist.Stats.compute d and s' = Netlist.Stats.compute d' in
      s.Netlist.Stats.cells = s'.Netlist.Stats.cells
      && s.Netlist.Stats.ffs = s'.Netlist.Stats.ffs
      && s.Netlist.Stats.pins = s'.Netlist.Stats.pins)

let prop_scan_chain_walk =
  QCheck.Test.make ~name:"stitched chains visit every scan cell exactly once" ~count:10
    gen_circuit
    (fun spec ->
      let d = circuit_of spec in
      ignore (Scan.Replace.run d);
      let t = Scan.Chains.plan d (Scan.Chains.Max_length 7) in
      Scan.Chains.stitch d t;
      let visited = Hashtbl.create 64 in
      Array.iter
        (fun chain ->
          Array.iter
            (fun iid ->
              if Hashtbl.mem visited iid then failwith "cell in two chains";
              Hashtbl.replace visited iid ())
            chain)
        t.Scan.Chains.chains;
      let scan_cells = ref 0 in
      Design.iter_insts d (fun i ->
          match i.Design.cell.Stdcell.Cell.kind with
          | Stdcell.Cell.Sdff | Stdcell.Cell.Tsff -> incr scan_cells
          | _ -> ());
      Hashtbl.length visited = !scan_cells)

let prop_tpi_preserves_checks =
  (* a low gate/FF ratio can leave a generated FF output legitimately
     dangling (tolerated by the flow), so the property is that TPI adds no
     violations of its own, not that the input was spotless *)
  QCheck.Test.make ~name:"TPI at any density introduces no netlist violations" ~count:8
    QCheck.(pair gen_circuit (int_range 1 8))
    (fun (spec, count) ->
      let d = circuit_of spec in
      let before = Netlist.Check.run d in
      let rep = Tpi.Select.run d ~count in
      let after = Netlist.Check.run d in
      List.for_all (fun v -> List.mem v before) after
      && List.length rep.Tpi.Select.inserted <= count
      && (Netlist.Stats.compute d).Netlist.Stats.test_points
         = List.length rep.Tpi.Select.inserted)

let prop_route_length_at_least_hpwl =
  QCheck.Test.make ~name:"routed net length >= half-perimeter bound" ~count:6 gen_circuit
    (fun spec ->
      let d = circuit_of spec in
      let fp = Layout.Floorplan.create d in
      let pl = Layout.Place.run d fp in
      let rt = Layout.Route.run pl in
      let ok = ref true in
      Array.iter
        (fun route ->
          match route with
          | None -> ()
          | Some (r : Layout.Route.net_route) ->
            let pts = Array.map (fun t -> t.Layout.Route.t_point) r.Layout.Route.terminals in
            let lx = Array.fold_left (fun a (p : Geom.Point.t) -> Float.min a p.Geom.Point.x) infinity pts in
            let ux = Array.fold_left (fun a (p : Geom.Point.t) -> Float.max a p.Geom.Point.x) neg_infinity pts in
            let ly = Array.fold_left (fun a (p : Geom.Point.t) -> Float.min a p.Geom.Point.y) infinity pts in
            let uy = Array.fold_left (fun a (p : Geom.Point.t) -> Float.max a p.Geom.Point.y) neg_infinity pts in
            if r.Layout.Route.length +. 1e-6 < ux -. lx +. uy -. ly then ok := false)
        rt.Layout.Route.routes;
      !ok)

let prop_sta_breakdown_sums =
  QCheck.Test.make ~name:"eq-3 breakdown always sums to T_cp" ~count:6 gen_circuit
    (fun spec ->
      let d = circuit_of spec in
      let fp = Layout.Floorplan.create d in
      let pl = Layout.Place.run d fp in
      let rt = Layout.Route.run pl in
      let rc = Layout.Extract.run pl rt in
      let sta = Sta.Tgraph.run d rc in
      Array.for_all
        (fun path ->
          match path with
          | None -> true
          | Some (p : Sta.Analysis.critical_path) ->
            Float.abs (Sta.Analysis.breakdown_total p.Sta.Analysis.breakdown -. p.Sta.Analysis.t_cp)
            < 1.0)
        sta.Sta.Analysis.per_domain)

let prop_patgen_cubes_detect =
  QCheck.Test.make ~name:"every final pattern set reaches its claimed coverage" ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      let d = Circuits.Bench.tiny ~seed ~ffs:16 ~gates:150 () in
      let m = Netlist.Cmodel.build d in
      let o = Atpg.Patgen.run m in
      (* claimed = representative statuses; replay and compare *)
      let u = Atpg.Fault.build m in
      let sim = Atpg.Fsim.create m in
      let ns = Array.length m.Netlist.Cmodel.sources in
      let live = ref (Array.to_list u.Atpg.Fault.representatives) in
      List.iter
        (fun pat ->
          let words = Array.init ns (fun s -> if Bytes.get pat s = '\001' then -1L else 0L) in
          Atpg.Fsim.set_sources sim words;
          live := List.filter (fun f -> Atpg.Fsim.detect_mask sim f = 0L) !live)
        o.Atpg.Patgen.patterns;
      let replay = Array.length u.Atpg.Fault.representatives - List.length !live in
      let claimed =
        Array.fold_left
          (fun acc (f : Atpg.Fault.fault) ->
            if f.Atpg.Fault.status = Atpg.Fault.Detected then acc + 1 else acc)
          0 o.Atpg.Patgen.universe.Atpg.Fault.representatives
      in
      replay >= claimed)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_verilog_roundtrip;
      prop_scan_chain_walk;
      prop_tpi_preserves_checks;
      prop_route_length_at_least_hpwl;
      prop_sta_breakdown_sums;
      prop_patgen_cubes_detect ]

(* additions: determinism and collapsing invariants *)
let prop_generation_deterministic =
  QCheck.Test.make ~name:"generation is a pure function of the seed" ~count:8
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let a = Circuits.Bench.tiny ~seed () and b = Circuits.Bench.tiny ~seed () in
      Netlist.Verilog.to_string a = Netlist.Verilog.to_string b)

let prop_collapse_classes_agree_on_detection =
  QCheck.Test.make ~name:"collapsed fault classes are detected together" ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      let d = Circuits.Bench.tiny ~seed ~ffs:12 ~gates:120 () in
      let m = Netlist.Cmodel.build d in
      let u = Atpg.Fault.build m in
      let sim = Atpg.Fsim.create m in
      let rng = Util.Rng.create seed in
      let ns = Array.length m.Netlist.Cmodel.sources in
      let ok = ref true in
      for _ = 1 to 5 do
        let words = Array.init ns (fun _ -> Util.Rng.int64 rng) in
        Atpg.Fsim.set_sources sim words;
        Array.iter
          (fun (f : Atpg.Fault.fault) ->
            let rep = Atpg.Fault.representative u f in
            if rep != f then begin
              (* equivalent faults have identical detection masks *)
              if Atpg.Fsim.detect_mask sim f <> Atpg.Fsim.detect_mask sim rep then ok := false
            end)
          u.Atpg.Fault.faults
      done;
      !ok)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_generation_deterministic; prop_collapse_classes_agree_on_detection ]
