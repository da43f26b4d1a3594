module Design = Netlist.Design
module Rect = Geom.Rect
module Point = Geom.Point

let svg_header (chip : Rect.t) buf =
  let w = Rect.width chip and h = Rect.height chip in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"%.1f %.1f %.1f %.1f\" \
        width=\"800\" height=\"800\">\n<g transform=\"translate(0,%.1f) scale(1,-1)\">\n"
       chip.Rect.lx chip.Rect.ly w h
       (chip.Rect.ly +. chip.Rect.uy))

let svg_footer buf = Buffer.add_string buf "</g>\n</svg>\n"

let rect buf ?(stroke = "none") ?(stroke_w = 0.0) ~fill (r : Rect.t) =
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" fill=\"%s\" \
        stroke=\"%s\" stroke-width=\"%.2f\"/>\n"
       r.Rect.lx r.Rect.ly (Rect.width r) (Rect.height r) fill stroke stroke_w)

let base_floorplan buf (fp : Floorplan.t) =
  rect buf ~fill:"#f4f1e8" fp.Floorplan.chip;
  List.iter
    (fun (ring : Floorplan.ring) ->
      let color =
        match ring.Floorplan.ring_name with
        | "io" -> "#c8bfa9"
        | "power" -> "#c96f4a"
        | _ -> "#5b7f9c"
      in
      rect buf ~fill:"none" ~stroke:color ~stroke_w:ring.Floorplan.width
        (Rect.inset ring.Floorplan.outer (ring.Floorplan.width /. 2.0)))
    fp.Floorplan.rings;
  rect buf ~fill:"#ffffff" ~stroke:"#999999" ~stroke_w:0.5 fp.Floorplan.core;
  Array.iter (fun row -> rect buf ~fill:"none" ~stroke:"#dddddd" ~stroke_w:0.2 row)
    fp.Floorplan.rows

let svg_floorplan fp =
  let buf = Buffer.create 8192 in
  svg_header fp.Floorplan.chip buf;
  base_floorplan buf fp;
  svg_footer buf;
  Buffer.contents buf

let cell_color (cell : Stdcell.Cell.t) =
  match cell.Stdcell.Cell.kind with
  | Stdcell.Cell.Tsff -> "#d62728"
  | Stdcell.Cell.Sdff | Stdcell.Cell.Dff -> "#1f77b4"
  | Stdcell.Cell.Clkbuf -> "#2ca02c"
  | Stdcell.Cell.Filler -> "#eeeeee"
  | _ -> "#bbbbbb"

let svg_placement (pl : Place.t) =
  let fp = pl.Place.fp in
  let buf = Buffer.create 65536 in
  svg_header fp.Floorplan.chip buf;
  base_floorplan buf fp;
  let rh = Stdcell.Library.row_height in
  Design.iter_insts pl.Place.design (fun i ->
      if Place.is_placed pl i.Design.id then begin
        let x = pl.Place.x.(i.Design.id) in
        let y = Place.y_of_row pl pl.Place.row.(i.Design.id) in
        let r = Rect.of_size ~lx:x ~ly:(y +. 0.2) ~w:i.Design.cell.Stdcell.Cell.width ~h:(rh -. 0.4) in
        rect buf ~fill:(cell_color i.Design.cell) r
      end);
  svg_footer buf;
  Buffer.contents buf

(* routed nets drawn, to keep the file small *)
let max_nets = 1500

let svg_routed (pl : Place.t) (rt : Route.t) =
  let fp = pl.Place.fp in
  let buf = Buffer.create 65536 in
  svg_header fp.Floorplan.chip buf;
  base_floorplan buf fp;
  let drawn = ref 0 in
  Array.iter
    (fun route ->
      match route with
      | Some (r : Route.net_route) when !drawn < max_nets ->
        incr drawn;
        Array.iteri
          (fun v p ->
            if p >= 0 then begin
              let a = r.Route.terminals.(v).Route.t_point
              and b = r.Route.terminals.(p).Route.t_point in
              Buffer.add_string buf
                (Printf.sprintf
                   "<polyline points=\"%.1f,%.1f %.1f,%.1f %.1f,%.1f\" fill=\"none\" \
                    stroke=\"#8888cc\" stroke-width=\"0.15\" opacity=\"0.6\"/>\n"
                   a.Point.x a.Point.y b.Point.x a.Point.y b.Point.x b.Point.y)
            end)
          r.Route.parent
      | Some _ | None -> ())
    rt.Route.routes;
  svg_footer buf;
  Buffer.contents buf

let ascii_density ?(cols = 64) (pl : Place.t) =
  let fp = pl.Place.fp in
  let core = fp.Floorplan.core in
  let rows_out = max 1 (cols / 2) in
  let grid = Array.make_matrix rows_out cols 0.0 in
  Design.iter_insts pl.Place.design (fun i ->
      if Place.is_placed pl i.Design.id && i.Design.cell.Stdcell.Cell.kind <> Stdcell.Cell.Filler
      then begin
        let p = Place.position pl i.Design.id in
        let c =
          min (cols - 1)
            (int_of_float (float_of_int cols *. (p.Point.x -. core.Rect.lx) /. Rect.width core))
        in
        let r =
          min (rows_out - 1)
            (int_of_float
               (float_of_int rows_out *. (p.Point.y -. core.Rect.ly) /. Rect.height core))
        in
        grid.(max 0 r).(max 0 c) <-
          grid.(max 0 r).(max 0 c) +. Stdcell.Cell.area i.Design.cell
      end);
  let bin_area = Rect.area core /. float_of_int (cols * rows_out) in
  let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
  let buf = Buffer.create 4096 in
  for r = rows_out - 1 downto 0 do
    for c = 0 to cols - 1 do
      let u = grid.(r).(c) /. bin_area in
      let k = max 0 (min 9 (int_of_float (u *. 9.0))) in
      Buffer.add_char buf shades.(k)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
