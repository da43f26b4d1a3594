module Design = Netlist.Design
module Cell = Stdcell.Cell
module Point = Geom.Point

type report = {
  buffers : int;
  max_depth : int;
  sinks : int;
}

type sink = {
  s_inst : int;
  s_pin : int;
  s_pos : Point.t;
}

let centroid sinks =
  let n = float_of_int (List.length sinks) in
  let cx = List.fold_left (fun acc s -> acc +. s.s_pos.Point.x) 0.0 sinks /. n in
  let cy = List.fold_left (fun acc s -> acc +. s.s_pos.Point.y) 0.0 sinks /. n in
  Point.make cx cy

(* split a sink list in two along its wider spread *)
let split sinks =
  let xs = List.map (fun s -> s.s_pos.Point.x) sinks in
  let ys = List.map (fun s -> s.s_pos.Point.y) sinks in
  let spread vs = List.fold_left Float.max neg_infinity vs -. List.fold_left Float.min infinity vs in
  let by_x = spread xs >= spread ys in
  let key s = if by_x then s.s_pos.Point.x else s.s_pos.Point.y in
  let sorted = List.sort (fun a b -> compare (key a) (key b)) sinks in
  let n = List.length sorted in
  (List.filteri (fun i _ -> i < n / 2) sorted, List.filteri (fun i _ -> i >= n / 2) sorted)

(* sinks or subtrees per buffer *)
let max_group = 16

let run (pl : Place.t) =
  let d = pl.Place.design in
  let buf_small = Stdcell.Library.find d.Design.lib Cell.Clkbuf ~drive:4 in
  let buf_big = Stdcell.Library.find d.Design.lib Cell.Clkbuf ~drive:8 in
  let buffers = ref 0 and max_depth = ref 0 and total_sinks = ref 0 in
  let counter = ref 0 in
  (* returns the (inst, input pin) of the subtree's root buffer plus its
     position, so the caller can wire a parent net to it *)
  let rec build dom depth sinks : sink =
    max_depth := max !max_depth depth;
    let make_buffer cell (children : sink list) =
      let pos = centroid children in
      let name = Printf.sprintf "ctsbuf_%d_%d" dom !counter in
      incr counter;
      let b = Design.add_instance d ~name ~cell in
      incr buffers;
      Eco.add_cell pl ~inst:b.Design.id ~near:pos;
      let out = Design.add_net d (name ^ "_y") in
      Design.connect d ~inst:b.Design.id ~pin:1 ~net:out.Design.nid;
      List.iter
        (fun s ->
          Design.disconnect d ~inst:s.s_inst ~pin:s.s_pin;
          Design.connect d ~inst:s.s_inst ~pin:s.s_pin ~net:out.Design.nid)
        children;
      { s_inst = b.Design.id; s_pin = 0; s_pos = Place.position pl b.Design.id }
    in
    if List.length sinks <= max_group then make_buffer buf_small sinks
    else begin
      let left, right = split sinks in
      let l = build dom (depth + 1) left and r = build dom (depth + 1) right in
      make_buffer buf_big [ l; r ]
    end
  in
  Array.iteri
    (fun dom (domain : Design.domain) ->
      let sinks = ref [] in
      Design.iter_insts d (fun i ->
          if Design.is_ff i && i.Design.domain = dom then begin
            match Cell.clock_pin i.Design.cell with
            | Some ck when i.Design.conns.(ck) = domain.Design.clock_net ->
              sinks :=
                { s_inst = i.Design.id; s_pin = ck; s_pos = Place.position pl i.Design.id }
                :: !sinks
            | Some _ | None -> ()
          end);
      total_sinks := !total_sinks + List.length !sinks;
      match !sinks with
      | [] -> ()
      | sinks ->
        let root = build dom 1 sinks in
        (* the root buffer's input comes straight from the clock port net *)
        Design.connect d ~inst:root.s_inst ~pin:root.s_pin ~net:domain.Design.clock_net)
    d.Design.domains;
  { buffers = !buffers; max_depth = !max_depth; sinks = !total_sinks }
