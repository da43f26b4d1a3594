(* layout: floorplan, place, eco, filler, cts, route, extract, drc, render *)
module Design = Netlist.Design
module Cell = Stdcell.Cell
module Rect = Geom.Rect
module Point = Geom.Point

let placed_tiny () =
  let d = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  ignore (Scan.Replace.run d);
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  (d, fp, pl)

let test_floorplan_geometry () =
  let d = Circuits.Bench.tiny () in
  let fp = Layout.Floorplan.create ~utilization:0.8 d in
  Alcotest.(check bool) "near-square core" true
    (Layout.Floorplan.aspect_ratio fp > 0.85 && Layout.Floorplan.aspect_ratio fp < 1.15);
  (* core area = cell area / utilization *)
  let cell_area = (Netlist.Stats.compute d).Netlist.Stats.cell_area in
  Helpers.check_approx "utilization honoured"
    (cell_area /. 0.8 /. Layout.Floorplan.core_area fp) 1.0;
  Alcotest.(check bool) "chip is square" true
    (Float.abs (Rect.width fp.Layout.Floorplan.chip -. Rect.height fp.Layout.Floorplan.chip)
     < 1e-6);
  Alcotest.(check bool) "chip contains core" true
    (Rect.area fp.Layout.Floorplan.chip > Layout.Floorplan.core_area fp);
  Alcotest.(check int) "three rings" 3 (List.length fp.Layout.Floorplan.rings)

let test_placement_legality () =
  let d, fp, pl = placed_tiny () in
  Design.iter_insts d (fun i ->
      if i.Design.cell.Cell.kind <> Cell.Filler then begin
        Alcotest.(check bool) "placed" true (Layout.Place.is_placed pl i.Design.id);
        let p = Layout.Place.position pl i.Design.id in
        Alcotest.(check bool) "inside core" true
          (Rect.contains (Rect.expand fp.Layout.Floorplan.core 0.1) p)
      end);
  (* no row exceeds its length before ECO *)
  Array.iter
    (fun used ->
      Alcotest.(check bool) "row fits" true (used <= fp.Layout.Floorplan.row_length +. 1e-6))
    pl.Layout.Place.row_used;
  (* no two cells in the same row overlap *)
  let by_row = Hashtbl.create 16 in
  Design.iter_insts d (fun i ->
      if Layout.Place.is_placed pl i.Design.id then begin
        let r = pl.Layout.Place.row.(i.Design.id) in
        let x = pl.Layout.Place.x.(i.Design.id) in
        let w = i.Design.cell.Cell.width in
        Hashtbl.replace by_row r ((x, w) :: Option.value ~default:[] (Hashtbl.find_opt by_row r))
      end);
  Hashtbl.iter
    (fun _ cells ->
      let sorted = List.sort compare cells in
      let rec walk = function
        | (x1, w1) :: ((x2, _) :: _ as rest) ->
          Alcotest.(check bool) "no overlap" true (x1 +. w1 <= x2 +. 1e-6);
          walk rest
        | _ -> ()
      in
      walk sorted)
    by_row

(* designs whose greedy row fill left a cell with no row to go to: the
   first-fit-decreasing repack must keep every row inside the core *)
let test_overfull_rows_repacked () =
  List.iter
    (fun (label, d) ->
      let fp = Layout.Floorplan.create d in
      let pl = Layout.Place.run d fp in
      Alcotest.(check int) (label ^ ": placement clean") 0
        (List.length (Layout.Check.check_placement ~overlaps:true pl));
      Array.iter
        (fun used ->
          Alcotest.(check bool) (label ^ ": row fits") true
            (used <= fp.Layout.Floorplan.row_length +. 1e-6))
        pl.Layout.Place.row_used)
    [ ("tiny 2x10", Circuits.Bench.tiny ~ffs:2 ~gates:10 ());
      ("seed 160", Circuits.Bench.tiny ~seed:160 ~ffs:30 ~gates:250 ());
      ("seed 272", Circuits.Bench.tiny ~seed:272 ~ffs:30 ~gates:250 ()) ]

(* MD5 of a portable rendering of (x, row): each x's IEEE bits, then
   each row, as little-endian 64-bit words *)
let placement_digest ?utilization d =
  let pl = Layout.Place.run d (Layout.Floorplan.create ?utilization d) in
  let buf = Buffer.create 4096 in
  Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) pl.Layout.Place.x;
  Array.iter (fun r -> Buffer.add_int64_le buf (Int64.of_int r)) pl.Layout.Place.row;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Placements are pinned, not just their wirelength: digests of the
   (x, row) arrays. Any change to the search -- gain-bucket
   order, Rng draws, the order of float area sums -- moves them; a
   deliberate change re-records them and explains the table diffs in
   EXPERIMENTS.md. *)
let test_placement_deterministic () =
  let _, _, pl1 = placed_tiny () in
  let _, _, pl2 = placed_tiny () in
  Helpers.check_approx "same hpwl" (Layout.Place.hpwl pl1) (Layout.Place.hpwl pl2);
  Alcotest.(check bool) "same x" true (compare pl1.Layout.Place.x pl2.Layout.Place.x = 0);
  Alcotest.(check bool) "same rows" true (pl1.Layout.Place.row = pl2.Layout.Place.row);
  let tiny =
    List.init 100 (fun i ->
        placement_digest (Circuits.Bench.tiny ~seed:(i + 1) ~ffs:30 ~gates:250 ()))
  in
  Alcotest.(check string) "tiny seeds 1-100" "0299337fcd0a36b167de3b5fe100b9e7"
    (Digest.to_hex (Digest.string (String.concat "" tiny)));
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) (name ^ " at scale 0.03") expected
        (placement_digest (Circuits.Bench.by_name name ~scale:0.03)))
    [ ("s38417", "7598ab4fa4a4a5ee2977c1a027d477c6");
      ("pcore_a", "d2084ffcbdc33823d548990a9785240b") ];
  (* deeper bisection, and pcore_b at its Table 2-3 utilization of 0.50 *)
  List.iter
    (fun (name, utilization, expected) ->
      Alcotest.(check string) (name ^ " at scale 0.1") expected
        (placement_digest ~utilization (Circuits.Bench.by_name name ~scale:0.1)))
    [ ("pcore_a", 0.97, "2ea9ac3f734e733a4116428c5b73f805");
      ("pcore_b", 0.50, "e94d425fd1b23193cb699ad38d577a5e") ];
  (* deeper still: about 20 bisection levels *)
  Alcotest.(check string) "pcore_a at scale 0.3" "1ae80fe4379a1b7cb3002d660e6aa104"
    (placement_digest (Circuits.Bench.by_name "pcore_a" ~scale:0.3))

(* An FM pass stops once no later prefix can beat its best one. The
   search is unchanged (the digests above), so every pass still runs, but
   fewer moves are made than a pass run until no cell can move: 501
   passes and 19,494 moves on this design. *)
let test_fm_early_exit () =
  let passes = Obs.Metrics.counter "place.fm_passes"
  and moves = Obs.Metrics.counter "place.fm_moves" in
  let d = Circuits.Bench.by_name "pcore_a" ~scale:0.03 in
  let p0 = Obs.Metrics.value passes and m0 = Obs.Metrics.value moves in
  ignore (Layout.Place.run d (Layout.Floorplan.create d) : Layout.Place.t);
  Alcotest.(check int) "every pass runs" 501 (Obs.Metrics.value passes - p0);
  let made = Obs.Metrics.value moves - m0 in
  if made >= 19_494 then Alcotest.failf "%d moves: the early exit never fired" made

let float_bits a = Array.map Int64.bits_of_float a

(* Place.run against the plain partitioner it replaced (Place_reference),
   bit for bit, over random small circuits, utilizations and placement
   seeds *)
let prop_place_matches_reference =
  let utilizations = [| 0.50; 0.80; 0.97 |] in
  QCheck.Test.make ~name:"placement matches the reference partitioner" ~count:30
    (QCheck.make
       ~print:(fun (seed, ffs, gates, (u, pseed)) ->
         Printf.sprintf "seed=%d ffs=%d gates=%d utilization=%.2f place seed=%d" seed ffs
           gates utilizations.(u) pseed)
       QCheck.Gen.(
         quad (int_range 1 10_000) (int_range 8 48) (int_range 100 600)
           (pair (int_range 0 2) (int_range 0 0xFFFF))))
    (fun (seed, ffs, gates, (u, pseed)) ->
      let d = Circuits.Bench.tiny ~seed ~ffs ~gates () in
      let fp = Layout.Floorplan.create ~utilization:utilizations.(u) d in
      let pl = Layout.Place.run ~seed:pseed d fp in
      let r = Place_reference.run ~seed:pseed d fp in
      float_bits pl.Layout.Place.x = float_bits r.Layout.Place.x
      && pl.Layout.Place.row = r.Layout.Place.row
      && float_bits pl.Layout.Place.row_used = float_bits r.Layout.Place.row_used)

(* the same oracle on the benchmark circuits, whose regions go through
   many more bisection levels than the small random circuits above *)
let prop_place_matches_reference_deep =
  let utilizations = [| 0.50; 0.80; 0.97 |] in
  let circuit (c, hundredths) =
    match c with
    | 0 -> ("s38417", float_of_int hundredths /. 100.0)
    | 1 -> ("pcore_a", float_of_int hundredths /. 100.0)
    | _ -> ("pcore_b", 0.1)
  in
  QCheck.Test.make ~name:"placement matches the reference on benchmark circuits" ~count:10
    (QCheck.make
       ~print:(fun (c, (u, pseed)) ->
         let name, scale = circuit c in
         Printf.sprintf "%s scale=%.2f utilization=%.2f place seed=%d" name scale
           utilizations.(u) pseed)
       QCheck.Gen.(
         pair
           (pair (int_range 0 2) (int_range 2 10))
           (pair (int_range 0 2) (int_range 0 0xFFFF))))
    (fun (c, (u, pseed)) ->
      let name, scale = circuit c in
      let d = Circuits.Bench.by_name name ~scale in
      let fp = Layout.Floorplan.create ~utilization:utilizations.(u) d in
      let pl = Layout.Place.run ~seed:pseed d fp in
      let r = Place_reference.run ~seed:pseed d fp in
      float_bits pl.Layout.Place.x = float_bits r.Layout.Place.x
      && pl.Layout.Place.row = r.Layout.Place.row
      && float_bits pl.Layout.Place.row_used = float_bits r.Layout.Place.row_used)

let test_placement_beats_random () =
  (* min-cut placement should clearly beat a random shuffle in HPWL *)
  let d, fp, pl = placed_tiny () in
  let hpwl_real = Layout.Place.hpwl pl in
  let rng = Util.Rng.create 3 in
  let ids = ref [] in
  Design.iter_insts d (fun i ->
      if Layout.Place.is_placed pl i.Design.id then ids := i.Design.id :: !ids);
  let arr = Array.of_list !ids in
  let xs = Array.map (fun iid -> pl.Layout.Place.x.(iid)) arr in
  let rows = Array.map (fun iid -> pl.Layout.Place.row.(iid)) arr in
  Util.Rng.shuffle rng arr;
  Array.iteri
    (fun k iid ->
      pl.Layout.Place.x.(iid) <- xs.(k);
      pl.Layout.Place.row.(iid) <- rows.(k))
    arr;
  let hpwl_random = Layout.Place.hpwl pl in
  ignore fp;
  Alcotest.(check bool) "real placement much shorter" true (hpwl_real < 0.75 *. hpwl_random)

let test_eco_and_filler () =
  let d, fp, pl = placed_tiny () in
  let buf = Design.add_instance d ~name:"eco_buf" ~cell:(Helpers.cell Cell.Buf) in
  let target = Rect.center fp.Layout.Floorplan.core in
  Layout.Eco.add_cell pl ~inst:buf.Design.id ~near:target;
  Alcotest.(check bool) "eco placed" true (Layout.Place.is_placed pl buf.Design.id);
  let p = Layout.Place.position pl buf.Design.id in
  Alcotest.(check bool) "near target" true (Point.manhattan p target < 80.0);
  let rep = Layout.Filler.run pl in
  Alcotest.(check bool) "filler added" true (rep.Layout.Filler.cells_added > 0);
  Alcotest.(check bool) "filler pct sane" true
    (rep.Layout.Filler.filler_area_pct >= 0.0 && rep.Layout.Filler.filler_area_pct < 60.0)

(* ECO cells arrive one at a time; the placement arrays at least double
   when they grow, and growing moves no cell already placed *)
let test_eco_capacity_geometric () =
  let d, fp, pl = placed_tiny () in
  let n0 = Design.num_insts d and added = 2000 in
  let near = Rect.center fp.Layout.Floorplan.core in
  let reallocs = ref 0 and x_arr = ref pl.Layout.Place.x in
  let placed = ref [] in
  for i = 0 to n0 - 1 do
    if Layout.Place.is_placed pl i then
      placed := (i, Int64.bits_of_float pl.Layout.Place.x.(i), pl.Layout.Place.row.(i)) :: !placed
  done;
  for k = 1 to added do
    let b = Design.add_instance d ~name:(Printf.sprintf "grow_%d" k) ~cell:(Helpers.cell Cell.Buf) in
    Layout.Eco.add_cell pl ~inst:b.Design.id ~near;
    if pl.Layout.Place.x != !x_arr then begin
      incr reallocs;
      x_arr := pl.Layout.Place.x
    end;
    let iid = b.Design.id in
    placed := (iid, Int64.bits_of_float pl.Layout.Place.x.(iid), pl.Layout.Place.row.(iid)) :: !placed
  done;
  (* k doublings of a length-n0 array hold n0 * 2^k ids *)
  let bound = 1 + int_of_float (Float.log2 (float_of_int (n0 + added) /. float_of_int n0)) in
  if !reallocs > bound then
    Alcotest.failf "%d reallocations for %d cells (at most %d)" !reallocs added bound;
  List.iter
    (fun (iid, x, r) ->
      if Int64.bits_of_float pl.Layout.Place.x.(iid) <> x || pl.Layout.Place.row.(iid) <> r then
        Alcotest.failf "instance %d moved" iid)
    !placed

let test_cts_tree () =
  let d, _, pl = placed_tiny () in
  let rep = Layout.Cts.run pl in
  Alcotest.(check bool) "buffers inserted" true (rep.Layout.Cts.buffers > 0);
  Alcotest.(check int) "all ffs are sinks" rep.Layout.Cts.sinks
    (List.length (Design.ffs d));
  Netlist.Check.assert_clean d;
  (* every FF clock pin now reaches the root clock through CLKBUFs only
     (this is what Check's clock tracing verifies); also each leaf buffer
     drives a bounded group *)
  Design.iter_insts d (fun i ->
      if i.Design.cell.Cell.kind = Cell.Clkbuf then begin
        let out = Design.net_of_output d i in
        Alcotest.(check bool) "bounded fanout" true
          (List.length (Design.net d out).Design.sinks <= 16)
      end)

let test_route_trees () =
  let d, _, pl = placed_tiny () in
  let rt = Layout.Route.run pl in
  Alcotest.(check bool) "wirelength positive" true (rt.Layout.Route.total_wirelength > 0.0);
  Array.iter
    (fun route ->
      match route with
      | None -> ()
      | Some (r : Layout.Route.net_route) ->
        let k = Array.length r.Layout.Route.terminals in
        Alcotest.(check int) "parent array sized" k (Array.length r.Layout.Route.parent);
        Alcotest.(check int) "root is driver" (-1) r.Layout.Route.parent.(0);
        (* spanning: every terminal reaches the root *)
        for v = 1 to k - 1 do
          let rec climb v guard =
            if guard > k then Alcotest.fail "parent cycle"
            else if v = 0 then ()
            else climb r.Layout.Route.parent.(v) (guard + 1)
          in
          climb v 0
        done)
    rt.Layout.Route.routes;
  ignore d

let test_extract_elmore () =
  let d, _, pl = placed_tiny () in
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  Design.iter_nets d (fun n ->
      let r = rc.(n.Design.nid) in
      Alcotest.(check bool) "cap nonnegative" true (r.Layout.Extract.total_cap_ff >= 0.0);
      List.iter
        (fun (s : Layout.Extract.sink_rc) ->
          Alcotest.(check bool) "elmore nonnegative" true (s.Layout.Extract.elmore_ps >= 0.0))
        r.Layout.Extract.sink_delays;
      (* wire cap consistent with length *)
      Helpers.check_approx "wire cap = c_per_um * len"
        (Layout.Extract.c_per_um *. r.Layout.Extract.length_um)
        r.Layout.Extract.wire_cap_ff)

let test_drc_upsizes () =
  let d, _, pl = placed_tiny () in
  let before = (Netlist.Stats.compute d).Netlist.Stats.cell_area in
  let rep = Layout.Drc.fix_max_cap pl in
  let after = (Netlist.Stats.compute d).Netlist.Stats.cell_area in
  if rep.Layout.Drc.upsized > 0 then
    Alcotest.(check bool) "area grew" true (after > before)
  else Alcotest.(check bool) "no change" true (Helpers.approx before after);
  Netlist.Check.assert_clean d

let test_render_outputs () =
  let _, fp, pl = placed_tiny () in
  let svg = Layout.Render.svg_floorplan fp in
  Alcotest.(check bool) "svg header" true
    (String.length svg > 100 && String.sub svg 0 4 = "<svg");
  let svg2 = Layout.Render.svg_placement pl in
  Alcotest.(check bool) "placement svg bigger" true (String.length svg2 > String.length svg);
  let ascii = Layout.Render.ascii_density ~cols:32 pl in
  Alcotest.(check bool) "ascii lines" true (String.length ascii > 32)

let suite =
  [ Alcotest.test_case "floorplan geometry" `Quick test_floorplan_geometry;
    Alcotest.test_case "placement legality" `Quick test_placement_legality;
    Alcotest.test_case "overfull rows repacked" `Quick test_overfull_rows_repacked;
    Alcotest.test_case "placement deterministic" `Quick test_placement_deterministic;
    Alcotest.test_case "fm early exit" `Quick test_fm_early_exit;
    Alcotest.test_case "placement beats random" `Quick test_placement_beats_random;
    Alcotest.test_case "eco and filler" `Quick test_eco_and_filler;
    Alcotest.test_case "eco capacity grows geometrically" `Quick test_eco_capacity_geometric;
    Alcotest.test_case "cts tree" `Quick test_cts_tree;
    Alcotest.test_case "route trees" `Quick test_route_trees;
    Alcotest.test_case "extract elmore" `Quick test_extract_elmore;
    Alcotest.test_case "drc upsizing" `Quick test_drc_upsizes;
    Alcotest.test_case "render" `Quick test_render_outputs ]

(* its own group, so CI can rerun it under other QCHECK_SEEDs *)
let exactness =
  [ QCheck_alcotest.to_alcotest prop_place_matches_reference;
    QCheck_alcotest.to_alcotest prop_place_matches_reference_deep ]
