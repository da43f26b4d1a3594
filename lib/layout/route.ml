module Design = Netlist.Design
module Point = Geom.Point
module Rect = Geom.Rect

type terminal = {
  t_point : Point.t;
  t_inst : int;
  t_pin : int;
}

type net_route = {
  terminals : terminal array;
  parent : int array;
  length : float;
}

type t = {
  routes : net_route option array;
  total_wirelength : float;
  gcell_um : float;
  usage_h : int array array;
  usage_v : int array array;
  overflowed_gcells : int;
}

let prim_threshold = 256

let m_segments = Obs.Metrics.counter "route.segments"
let m_nets_routed = Obs.Metrics.counter "route.nets_routed"
let g_overflowed = Obs.Metrics.gauge "route.overflowed_gcells"
let h_net_terminals = Obs.Metrics.histogram "route.net_terminals"

(* exact RMST by Prim's algorithm, O(k^2) *)
let prim (pts : Point.t array) =
  let k = Array.length pts in
  let parent = Array.make k (-1) in
  let dist = Array.make k infinity in
  let intree = Array.make k false in
  dist.(0) <- 0.0;
  for _ = 1 to k do
    let best = ref (-1) in
    for v = 0 to k - 1 do
      if (not intree.(v)) && (!best < 0 || dist.(v) < dist.(!best)) then best := v
    done;
    let u = !best in
    intree.(u) <- true;
    for v = 0 to k - 1 do
      if not intree.(v) then begin
        let w = Point.manhattan pts.(u) pts.(v) in
        if w < dist.(v) then begin
          dist.(v) <- w;
          parent.(v) <- u
        end
      end
    done
  done;
  parent

(* for enormous nets (pre-CTS clock, unbuffered scan enable): snake chain *)
let snake (pts : Point.t array) =
  let k = Array.length pts in
  let order = Array.init (k - 1) (fun i -> i + 1) in
  Array.sort
    (fun a b ->
      let pa = pts.(a) and pb = pts.(b) in
      let band p = int_of_float (p.Point.y /. 30.0) in
      let ka = (band pa, if band pa mod 2 = 0 then pa.Point.x else -.pa.Point.x) in
      let kb = (band pb, if band pb mod 2 = 0 then pb.Point.x else -.pb.Point.x) in
      compare ka kb)
    order;
  let parent = Array.make k (-1) in
  Array.iteri (fun i v -> parent.(v) <- (if i = 0 then 0 else order.(i - 1))) order;
  parent

(* one net's spanning tree over its placed terminals; pure — no metrics,
   no congestion. Deterministic in the placement and the net's
   driver/sink order, so re-routing one net after an ECO reproduces
   exactly what a whole-design [run] would compute for it. *)
let route_net (pl : Place.t) (n : Design.net) =
  let terms = ref [] in
  (match n.Design.driver with
   | Design.Cell_pin (iid, pin) when Place.is_placed pl iid ->
     terms := [ { t_point = Pinpos.inst_pin pl iid; t_inst = iid; t_pin = pin } ]
   | Design.Port_in pid ->
     terms := [ { t_point = Pinpos.port pl pid; t_inst = -1; t_pin = pid } ]
   | Design.Cell_pin _ | Design.No_driver -> ());
  if !terms = [] then None
  else begin
    List.iter
      (fun (iid, pin) ->
        if Place.is_placed pl iid then
          terms := { t_point = Pinpos.inst_pin pl iid; t_inst = iid; t_pin = pin } :: !terms)
      n.Design.sinks;
    if n.Design.out_port >= 0 then
      terms :=
        { t_point = Pinpos.port pl n.Design.out_port; t_inst = -1; t_pin = n.Design.out_port }
        :: !terms;
    (* driver collected first, so it ends up last after consing *)
    let terminals = Array.of_list (List.rev !terms) in
    if Array.length terminals < 2 then None
    else begin
      let pts = Array.map (fun t -> t.t_point) terminals in
      let parent = if Array.length pts <= prim_threshold then prim pts else snake pts in
      let length = ref 0.0 in
      Array.iteri
        (fun v p ->
          if p >= 0 then length := !length +. Point.manhattan pts.(v) pts.(p))
        parent;
      Some { terminals; parent; length = !length }
    end
  end

(* the grid [run] defaults to and [rebuild_stats] always uses, so a
   patched routes array rebuilds the congestion a fresh [run] reports *)
let default_gcell_um = 20.0
let default_capacity = 14

(* congestion grid shared by [run] and [rebuild_stats] *)
let grid ~gcell_um (pl : Place.t) =
  let chip = pl.Place.fp.Floorplan.chip in
  let cols = max 1 (int_of_float (Float.round (Rect.width chip /. gcell_um))) in
  let rows = max 1 (int_of_float (Float.round (Rect.height chip /. gcell_um))) in
  let usage_h = Array.make_matrix rows cols 0 in
  let usage_v = Array.make_matrix rows cols 0 in
  let gx x = max 0 (min (cols - 1) (int_of_float ((x -. chip.Rect.lx) /. gcell_um))) in
  let gy y = max 0 (min (rows - 1) (int_of_float ((y -. chip.Rect.ly) /. gcell_um))) in
  let add_h y x0 x1 =
    let r = gy y in
    for c = min (gx x0) (gx x1) to max (gx x0) (gx x1) do
      usage_h.(r).(c) <- usage_h.(r).(c) + 1
    done
  in
  let add_v x y0 y1 =
    let c = gx x in
    for r = min (gy y0) (gy y1) to max (gy y0) (gy y1) do
      usage_v.(r).(c) <- usage_v.(r).(c) + 1
    done
  in
  (rows, cols, usage_h, usage_v, add_h, add_v)

(* every tree edge as an L: horizontal first, then vertical *)
let add_route_to_grid ~add_h ~add_v (r : net_route) =
  Array.iteri
    (fun v p ->
      if p >= 0 then begin
        let a = r.terminals.(v).t_point and b = r.terminals.(p).t_point in
        add_h a.Point.y a.Point.x b.Point.x;
        add_v b.Point.x a.Point.y b.Point.y
      end)
    r.parent

let count_overflow ~capacity ~rows ~cols usage_h usage_v =
  let overflowed = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if usage_h.(r).(c) > capacity || usage_v.(r).(c) > capacity then incr overflowed
    done
  done;
  !overflowed

let run ?(gcell_um = default_gcell_um) ?(capacity = default_capacity) (pl : Place.t) =
  let d = pl.Place.design in
  let rows, cols, usage_h, usage_v, add_h, add_v = grid ~gcell_um pl in
  let routes = Array.make (Design.num_nets d) None in
  let total = ref 0.0 in
  Obs.Trace.with_span ~name:"route.nets"
    ~attrs:[ ("nets", Obs.Json.Int (Design.num_nets d)) ]
    (fun () ->
  Design.iter_nets d (fun n ->
      match route_net pl n with
      | None -> ()
      | Some r ->
        Obs.Metrics.observe h_net_terminals (float_of_int (Array.length r.terminals));
        Array.iter (fun p -> if p >= 0 then Obs.Metrics.incr m_segments) r.parent;
        add_route_to_grid ~add_h ~add_v r;
        total := !total +. r.length;
        Obs.Metrics.incr m_nets_routed;
        routes.(n.Design.nid) <- Some r));
  let overflowed = count_overflow ~capacity ~rows ~cols usage_h usage_v in
  Obs.Metrics.set g_overflowed (float_of_int overflowed);
  { routes;
    total_wirelength = !total;
    gcell_um;
    usage_h;
    usage_v;
    overflowed_gcells = overflowed }

(* recompute the aggregate view (wirelength, congestion, overflow) from a
   routes array whose entries were patched net by net: the result equals
   what [run] on its default grid would build if it produced the same
   routes. No route.* counters move — this is bookkeeping, not routing
   work. *)
let rebuild_stats (pl : Place.t) (routes : net_route option array) =
  let gcell_um = default_gcell_um in
  let rows, cols, usage_h, usage_v, add_h, add_v = grid ~gcell_um pl in
  let total = ref 0.0 in
  Array.iter
    (fun ro ->
      match ro with
      | None -> ()
      | Some r ->
        add_route_to_grid ~add_h ~add_v r;
        total := !total +. r.length)
    routes;
  let overflowed = count_overflow ~capacity:default_capacity ~rows ~cols usage_h usage_v in
  Obs.Metrics.set g_overflowed (float_of_int overflowed);
  { routes;
    total_wirelength = !total;
    gcell_um;
    usage_h;
    usage_v;
    overflowed_gcells = overflowed }
