module Design = Netlist.Design
module Cell = Stdcell.Cell
module Rect = Geom.Rect

type violation =
  | Zero_length_row of int
  | Unplaced_cell of int
  | Cell_outside_core of int
  | Cell_overlap of int * int
  | Route_missing_endpoint of int
  | Nonfinite_rc of int
  | Negative_rc of int

let class_name = function
  | Zero_length_row _ -> "zero-length-row"
  | Unplaced_cell _ -> "unplaced-cell"
  | Cell_outside_core _ -> "outside-core"
  | Cell_overlap _ -> "cell-overlap"
  | Route_missing_endpoint _ -> "route-endpoint"
  | Nonfinite_rc _ -> "nonfinite-rc"
  | Negative_rc _ -> "negative-rc"

let pp_violation (d : Design.t) ppf =
  let iname iid = (Design.inst d iid).Design.iname in
  function
  | Zero_length_row r -> Format.fprintf ppf "row %d has zero length" r
  | Unplaced_cell i -> Format.fprintf ppf "cell %s is unplaced" (iname i)
  | Cell_outside_core i -> Format.fprintf ppf "cell %s lies outside the core rows" (iname i)
  | Cell_overlap (i, j) ->
    Format.fprintf ppf "cells %s and %s overlap" (iname i) (iname j)
  | Route_missing_endpoint n ->
    Format.fprintf ppf "route of net %s has a missing endpoint" (Design.net d n).Design.nname
  | Nonfinite_rc n ->
    Format.fprintf ppf "net %s has non-finite RC" (Design.net d n).Design.nname
  | Negative_rc n ->
    Format.fprintf ppf "net %s has negative RC" (Design.net d n).Design.nname

let eps = 1e-6

(* ECO-placed cells (clock and scan-enable buffers legalised after global
   placement) may overlap their neighbours: the stand-in ECO placer drops
   them at the nearest legal-capacity row without shuffling the
   incumbents, as documented in {!Eco}. DRC upsizing also widens cells in
   place, so callers disable [overlaps] after step 4 and use [margin] to
   tolerate the widened footprints at the core edge. *)
let check_placement ?(overlaps = true) ?(margin = eps)
    (pl : Place.t) =
  let out = ref [] in
  let add v = out := v :: !out in
  let fp = pl.Place.fp in
  let nrows = Floorplan.num_rows fp in
  (* core rows must have physical extent *)
  if fp.Floorplan.row_length <= eps then add (Zero_length_row (-1));
  Array.iteri
    (fun r rect ->
      if Rect.width rect <= eps || Rect.height rect <= eps then add (Zero_length_row r))
    fp.Floorplan.rows;
  let lx = fp.Floorplan.core.Rect.lx in
  let rx = lx +. fp.Floorplan.row_length in
  let per_row = Array.make (max nrows 1) [] in
  Design.iter_insts pl.Place.design (fun i ->
      if i.Design.cell.Cell.kind <> Cell.Filler then begin
        let iid = i.Design.id in
        if not (Place.is_placed pl iid) then add (Unplaced_cell iid)
        else begin
          let x = pl.Place.x.(iid) and r = pl.Place.row.(iid) in
          let w = i.Design.cell.Cell.width in
          if
            (not (Float.is_finite x))
            || r < 0 || r >= nrows
            || x < lx -. margin
            || x +. w > rx +. margin
          then add (Cell_outside_core iid)
          else if overlaps then
            per_row.(r) <- (iid, x, w) :: per_row.(r)
        end
      end);
  if overlaps then
    Array.iter
      (fun members ->
        let a = Array.of_list members in
        Array.sort (fun (_, x1, _) (_, x2, _) -> compare x1 x2) a;
        for k = 0 to Array.length a - 2 do
          let i1, x1, w1 = a.(k) and i2, x2, _ = a.(k + 1) in
          if x2 < x1 +. w1 -. eps then add (Cell_overlap (i1, i2))
        done)
      per_row;
  List.rev !out

let check_route (pl : Place.t) (rt : Route.t) =
  let out = ref [] in
  let add v = out := v :: !out in
  Array.iteri
    (fun nid r ->
      match r with
      | None -> ()
      | Some (nr : Route.net_route) ->
        let n = Array.length nr.Route.terminals in
        let bad = ref (n = 0 || Array.length nr.Route.parent <> n) in
        if not !bad then begin
          if nr.Route.parent.(0) <> -1 then bad := true;
          Array.iteri
            (fun k p ->
              if k > 0 && (p < 0 || p >= n || p = k) then bad := true)
            nr.Route.parent;
          Array.iter
            (fun (t : Route.terminal) ->
              if
                (not (Float.is_finite t.Route.t_point.Geom.Point.x))
                || not (Float.is_finite t.Route.t_point.Geom.Point.y)
              then bad := true
              else if t.Route.t_inst >= 0 && not (Place.is_placed pl t.Route.t_inst) then
                bad := true)
            nr.Route.terminals;
          if not (Float.is_finite nr.Route.length) || nr.Route.length < -.eps then
            bad := true
        end;
        if !bad then add (Route_missing_endpoint nid))
    rt.Route.routes;
  List.rev !out

let check_rc (rc : Extract.net_rc array) =
  let out = ref [] in
  let add v = out := v :: !out in
  Array.iteri
    (fun nid (r : Extract.net_rc) ->
      let fin = Float.is_finite in
      let vals =
        r.Extract.wire_cap_ff :: r.Extract.pin_cap_ff :: r.Extract.total_cap_ff
        :: r.Extract.length_um
        :: List.map (fun (s : Extract.sink_rc) -> s.Extract.elmore_ps) r.Extract.sink_delays
      in
      if List.exists (fun v -> not (fin v)) vals then add (Nonfinite_rc nid)
      else if List.exists (fun v -> v < -.eps) vals then add (Negative_rc nid))
    rc;
  List.rev !out

let render (d : Design.t) vs =
  match vs with
  | [] -> ""
  | v :: _ ->
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "%s: %d violation(s), first: %a" (class_name v) (List.length vs)
      (pp_violation d) v;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
