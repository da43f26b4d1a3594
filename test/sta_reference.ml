(* Reference arrival propagator: the test oracle for Sta.Tgraph.

   A deliberately independent, sequential Kahn-order pass over the design
   records — no flat mirror, no precomputed level order, no pool — that
   computes what a from-scratch static timing analysis must produce.
   Tgraph's whole-graph propagate and its cone retime are checked against
   it bit for bit: both replay the same per-arc float
   operations in an order that only has to respect the same dependencies,
   so any divergence is a propagation-order or mirroring bug in the
   engine. Its NLDM lookups go through [lut_eval], not the engine's
   kernel. The report is built by the shared Analysis.build_result. *)

module Design = Netlist.Design
module Cell = Stdcell.Cell
module Lut = Stdcell.Lut
module A = Sta.Analysis

(* The NLDM lookup as a record-returning pair of recursive helpers, kept
   as written before [Stdcell.Lut.interp] replaced it: the oracle the
   allocation-free kernel must match bit for bit. [values.(i).(j)] is the
   entry at [slews.(i)], [loads.(j)]. *)
let lut_eval ~(slews : float array) ~(loads : float array) ~(values : float array array)
    ~slew ~load =
  let segment axis x =
    let n = Array.length axis in
    if n = 1 then 0
    else begin
      let rec find i = if i >= n - 2 || x < axis.(i + 1) then i else find (i + 1) in
      if x <= axis.(0) then 0 else find 0
    end
  in
  let axis_fraction axis i x =
    if Array.length axis = 1 then 0.0
    else (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i))
  in
  let i = segment slews slew and j = segment loads load in
  let u = axis_fraction slews i slew and v = axis_fraction loads j load in
  let at di dj =
    let i' = min (i + di) (Array.length slews - 1)
    and j' = min (j + dj) (Array.length loads - 1) in
    values.(i').(j')
  in
  let v00 = at 0 0 and v01 = at 0 1 and v10 = at 1 0 and v11 = at 1 1 in
  let value =
    ((1.0 -. u) *. (((1.0 -. v) *. v00) +. (v *. v01)))
    +. (u *. (((1.0 -. v) *. v10) +. (v *. v11)))
  in
  let extrapolated =
    slew < slews.(0)
    || slew > slews.(Array.length slews - 1)
    || load < loads.(0)
    || load > loads.(Array.length loads - 1)
  in
  (value, extrapolated)

(* timing input pins of an instance in application mode *)
let timing_inputs (i : Design.instance) =
  if A.is_launch i then
    match Cell.clock_pin i.Design.cell with Some ck -> [ ck ] | None -> []
  else List.map (fun (a : Cell.arc) -> a.Cell.from_pin) (A.app_arcs i.Design.cell)

let run (pl : Layout.Place.t) (rc : Layout.Extract.net_rc array) =
  let d = pl.Layout.Place.design in
  let nn = Design.num_nets d in
  let arrival = Array.make nn neg_infinity in
  let slew = Array.make nn A.input_slew_ps in
  (* which input pin set each net's worst arrival *)
  let from_pin = Array.make nn (-1) in
  let slow_flag = Array.make (Design.num_insts d) false in
  (* seed: ports and constants *)
  List.iter
    (fun (p : Design.port) ->
      if p.Design.pnet >= 0 then begin
        arrival.(p.Design.pnet) <- A.input_arrival_ps;
        slew.(p.Design.pnet) <- A.input_slew_ps
      end)
    (Design.input_ports d);
  Design.iter_insts d (fun i ->
      match i.Design.cell.Cell.kind with
      | Cell.Tiehi | Cell.Tielo ->
        let out = Design.net_of_output d i in
        if out >= 0 then begin
          arrival.(out) <- 0.0;
          slew.(out) <- A.input_slew_ps
        end
      | _ -> ());
  (* Kahn order over instances: a cell is ready when all nets feeding its
     timing input pins have been finalised *)
  let pending = Array.make (Design.num_insts d) 0 in
  let driven_by_cell nid =
    match (Design.net d nid).Design.driver with
    | Design.Cell_pin (src, _) ->
      (match (Design.inst d src).Design.cell.Cell.kind with
       | Cell.Tiehi | Cell.Tielo | Cell.Filler -> false
       | _ -> true)
    | Design.Port_in _ | Design.No_driver -> false
  in
  let queue = Queue.create () in
  let considered = Array.make (Design.num_insts d) false in
  Design.iter_insts d (fun i ->
      match i.Design.cell.Cell.kind with
      | Cell.Filler | Cell.Tiehi | Cell.Tielo -> ()
      | _ ->
        considered.(i.Design.id) <- true;
        let count =
          List.length
            (List.filter
               (fun pin ->
                 let nid = i.Design.conns.(pin) in
                 nid >= 0 && driven_by_cell nid)
               (timing_inputs i))
        in
        pending.(i.Design.id) <- count;
        if count = 0 then Queue.add i.Design.id queue);
  let elmore nid ~inst ~pin = Layout.Extract.sink_elmore rc.(nid) ~inst ~pin in
  let eval_arc iid pin in_net out_net (a : Cell.arc) =
    let pa = arrival.(in_net) +. elmore in_net ~inst:iid ~pin in
    let ps = slew.(in_net) +. (2.0 *. elmore in_net ~inst:iid ~pin) in
    let load = rc.(out_net).Layout.Extract.total_cap_ff in
    let lookup tbl =
      lut_eval ~slews:(Lut.slew_axis_of tbl) ~loads:(Lut.load_axis_of tbl)
        ~values:(Lut.values_of tbl) ~slew:ps ~load
    in
    let dl, dl_x = lookup a.Cell.delay and sl, sl_x = lookup a.Cell.out_slew in
    if pa +. dl > arrival.(out_net) then begin
      arrival.(out_net) <- pa +. dl;
      slew.(out_net) <- sl;
      from_pin.(out_net) <- pin
    end;
    if dl_x || sl_x then slow_flag.(iid) <- true
  in
  let eval_inst iid =
    let i = Design.inst d iid in
    let launch_ck =
      if A.is_launch i then
        match Cell.clock_pin i.Design.cell with Some ck -> Some ck | None -> Some (-1)
      else None
    in
    List.iter
      (fun (a : Cell.arc) ->
        let timed = match launch_ck with Some ck -> a.Cell.from_pin = ck | None -> true in
        let in_net = i.Design.conns.(a.Cell.from_pin) in
        let out_net = i.Design.conns.(a.Cell.to_pin) in
        if timed && in_net >= 0 && out_net >= 0 && arrival.(in_net) > neg_infinity then
          eval_arc iid a.Cell.from_pin in_net out_net a)
      (A.app_arcs i.Design.cell)
  in
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let iid = Queue.pop queue in
    incr processed;
    eval_inst iid;
    match Design.net_of_output d (Design.inst d iid) with
    | -1 -> ()
    | out_net ->
      List.iter
        (fun (sink, pin) ->
          if considered.(sink) && List.mem pin (timing_inputs (Design.inst d sink)) then begin
            pending.(sink) <- pending.(sink) - 1;
            if pending.(sink) = 0 then Queue.add sink queue
          end)
        (Design.net d out_net).Design.sinks
  done;
  let total = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 considered in
  if !processed <> total then begin
    (* name a cell stuck on the cycle: considered but never released *)
    let offender = ref (-1) in
    Design.iter_insts d (fun i ->
        if !offender < 0 && considered.(i.Design.id) && pending.(i.Design.id) > 0 then
          offender := i.Design.id);
    let iname = if !offender >= 0 then (Design.inst d !offender).Design.iname else "?" in
    raise (A.Combinational_cycle { inst = !offender; iname })
  end;
  let slow_nodes = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 slow_flag in
  A.build_result d ~arrival ~slew ~from_pin ~slow_nodes ~elmore

(* Endpoint setup slacks over a reference analysis: the oracle for
   Sta.Tgraph.slack. Written against the design records and the
   extracted parasitics, not the flat graph, so a mirroring bug in the
   engine (wrong Elmore key, stale clock arrival) shows as a difference. *)
let slack_report (pl : Layout.Place.t) (rc : Layout.Extract.net_rc array) (a : A.t) =
  let module T = Sta.Tgraph in
  let d = pl.Layout.Place.design in
  let acc = ref [] in
  Design.iter_insts d (fun i ->
      if i.Design.cell.Cell.sequential && i.Design.domain >= 0
         && i.Design.domain < Array.length d.Design.domains then begin
        match Cell.data_pin i.Design.cell with
        | Some dp ->
          let dnet = i.Design.conns.(dp) in
          if dnet >= 0 && a.A.arrival.(dnet) > neg_infinity then begin
            let arr =
              a.A.arrival.(dnet)
              +. Layout.Extract.sink_elmore rc.(dnet) ~inst:i.Design.id ~pin:dp
            in
            let capture =
              match Cell.clock_pin i.Design.cell with
              | Some ck ->
                let cknet = i.Design.conns.(ck) in
                if cknet >= 0 && a.A.arrival.(cknet) > neg_infinity then
                  a.A.arrival.(cknet)
                  +. Layout.Extract.sink_elmore rc.(cknet) ~inst:i.Design.id ~pin:ck
                else 0.0
              | None -> 0.0
            in
            let period = d.Design.domains.(i.Design.domain).Design.period_ps in
            let slack = period +. capture -. (arr +. i.Design.cell.Cell.setup) in
            acc := { T.ff = i.Design.id; domain = i.Design.domain; slack_ps = slack } :: !acc
          end
        | None -> ()
      end);
  let endpoints =
    List.sort (fun (x : T.endpoint_slack) y -> compare x.T.slack_ps y.T.slack_ps) !acc
  in
  let negative = List.filter (fun (e : T.endpoint_slack) -> e.T.slack_ps < 0.0) endpoints in
  { T.endpoints;
    wns = (match endpoints with [] -> 0.0 | e :: _ -> e.T.slack_ps);
    tns = List.fold_left (fun s (e : T.endpoint_slack) -> s +. e.T.slack_ps) 0.0 negative;
    violations = List.length negative }
