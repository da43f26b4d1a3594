(* Incremental ECO re-timing context.

   Owns the mutable post-layout state — placement, per-net routes,
   per-net parasitics, the compiled flat timing graph — and threads each
   netlist edit through the minimal physical update: re-place only new
   cells (ECO legalization), re-route and re-extract only the nets whose
   terminals moved, then worklist-retime only the dirtied cone. Because
   routing and extraction are pure per-net maps and Tgraph.retime is
   exact, the state after any edit sequence is byte-identical to tearing
   the layout down and re-running Route.run + Extract.run + a fresh
   timing analysis on the same mutated design — the property the
   incremental suite and the QCheck random-ECO property pin down.

   A trial ([open_trial] .. [commit]/[rollback]) makes the edits in
   between speculative: each edit logs its structural inverse and the
   routes/parasitics of the nets it is about to re-route, the graph
   journals the timing values it rewrites, and a rollback reverts the
   netlist, then restores those values instead of re-timing the cone. *)

module Design = Netlist.Design
module Cell = Stdcell.Cell
module Place = Layout.Place
module Route = Layout.Route
module Extract = Layout.Extract

let m_edits = Obs.Metrics.counter "sta.incremental.eco_edits"

(* the structural inverse of one trial edit *)
type undo =
  | Unbuffer of int               (* the buffer instance *)
  | Unresize of int * Cell.t      (* instance, its cell before the edit *)
  | Unswap of int * int * int     (* instance, the two exchanged pins *)

(* a pre-existing net as a trial found it: the route and parasitics, and
   the connectivity they were derived from *)
type saved_net = {
  s_nid : int;
  s_route : Route.net_route option;
  s_rc : Extract.net_rc;
  s_driver : Design.driver;
  s_sinks : (int * int) list;
  s_out_port : int;
}

type t = {
  pl : Place.t;
  tg : Sta.Tgraph.t;
  mutable routes : Route.net_route option array;
  mutable rc : Extract.net_rc array;
  mutable next_tp : int;
  mutable leaf_clocks : (int * int) list;  (* (domain, leaf clock net) *)
  mutable trial : bool;
  mutable undo : undo list;                (* newest first *)
  mutable saved : saved_net list;          (* once per net, newest first *)
}

(* CTS leaf buffers: clock buffers whose output net feeds sequential
   clock pins directly. An ECO TSFF hangs off the nearest one so the
   tree above — and every other leaf group's latency — stays untouched. *)
let find_leaf_clocks (d : Design.t) =
  let leaves = ref [] in
  Design.iter_insts d (fun b ->
      if b.Design.cell.Cell.kind = Cell.Clkbuf then begin
        match Design.net_of_output d b with
        | -1 -> ()
        | o ->
          let dom = ref (-1) in
          List.iter
            (fun (sid, pin) ->
              if !dom < 0 then begin
                let s = Design.inst d sid in
                if s.Design.cell.Cell.sequential
                   && Cell.clock_pin s.Design.cell = Some pin then
                  dom := s.Design.domain
              end)
            (Design.net d o).Design.sinks;
          if !dom >= 0 then leaves := (!dom, b.Design.id, o) :: !leaves
      end);
  !leaves

let create (pl : Place.t) (rt : Route.t) (rc : Extract.net_rc array) =
  let d = pl.Place.design in
  let tg = Sta.Tgraph.compile d rc in
  Sta.Tgraph.propagate tg;
  let next_tp = ref 0 in
  Design.iter_insts d (fun i ->
      if i.Design.cell.Cell.kind = Cell.Tsff then incr next_tp);
  { pl;
    tg;
    routes = Array.copy rt.Route.routes;
    rc = Array.copy rc;
    next_tp = !next_tp;
    leaf_clocks = List.map (fun (dom, _, o) -> (dom, o)) (find_leaf_clocks d);
    trial = false;
    undo = [];
    saved = [] }

let design t = t.pl.Place.design
let tgraph t = t.tg
let placement t = t.pl
let rc t = t.rc

let analysis t = Sta.Tgraph.analysis t.tg

let route t = Route.rebuild_stats t.pl t.routes

(* nearest leaf clock net of a domain; falls back to the domain's root
   clock net (pre-CTS designs wire flip-flops to the root directly) *)
let leaf_clock_for t ~dom ~near =
  let d = design t in
  let best = ref None in
  List.iter
    (fun (ldom, lnet) ->
      if ldom = dom then
        match (Design.net d lnet).Design.driver with
        | Design.Cell_pin (bid, _) when Place.is_placed t.pl bid ->
          let p = Place.position t.pl bid in
          let dist = Geom.Point.manhattan p near in
          (match !best with
           | Some (bd, _) when bd <= dist -> ()
           | _ -> best := Some (dist, lnet))
        | _ -> ())
    t.leaf_clocks;
  match !best with Some (_, lnet) -> Some lnet | None -> None

(* a point to legalize a new cell near: the edited net's driver, else its
   first placed sink, else the core centre *)
let anchor t nid =
  let d = design t in
  match Layout.Pinpos.of_driver t.pl (Design.net d nid) with
  | Some p -> p
  | None ->
    let n = Design.net d nid in
    let rec first = function
      | [] ->
        let core = t.pl.Place.fp.Layout.Floorplan.core in
        Geom.Point.make
          ((core.Geom.Rect.lx +. core.Geom.Rect.ux) /. 2.0)
          ((core.Geom.Rect.ly +. core.Geom.Rect.uy) /. 2.0)
      | (sid, _) :: rest ->
        if Place.is_placed t.pl sid then Place.position t.pl sid else first rest
    in
    first n.Design.sinks

(* absorb one completed design edit: legalize any new cells, mirror the
   topology into the graph, re-route/re-extract the touched nets, retime
   the cone. [old_ni]/[old_nn]/[old_np] are the design sizes before the
   edit; [nets]/[insts] the pre-existing nets and instances it touched. *)
let refresh t ~old_ni ~old_nn ~old_np ~near ~nets ~insts =
  let d = design t in
  let nn = Design.num_nets d and ni = Design.num_insts d in
  (* port pin positions are a function of the total port count (they share
     the core perimeter), so an edit that adds a port — the first TP's
     test_se/test_tr — moves every existing port's pin and with it the
     route of every port-connected net *)
  let nets =
    if Util.Vec.length d.Design.ports = old_np then nets
    else begin
      let acc = ref nets in
      for nid = 0 to old_nn - 1 do
        let n = Design.net d nid in
        let port_connected =
          (match n.Design.driver with Design.Port_in _ -> true | _ -> false)
          || n.Design.out_port >= 0
        in
        if port_connected && not (List.mem nid !acc) then acc := nid :: !acc
      done;
      !acc
    end
  in
  (* any cell the edit created that it did not place itself *)
  for iid = old_ni to ni - 1 do
    if not (Place.is_placed t.pl iid) then Layout.Eco.add_cell t.pl ~inst:iid ~near
  done;
  Sta.Tgraph.sync_topology t.tg ~nets ~insts;
  (* grow the per-net mirrors *)
  if nn > Array.length t.routes then begin
    let routes = Array.make nn None in
    Array.blit t.routes 0 routes 0 old_nn;
    t.routes <- routes;
    let rc = Array.make nn t.rc.(0) in
    Array.blit t.rc 0 rc 0 old_nn;
    t.rc <- rc
  end;
  let dirty = ref [] in
  for nid = nn - 1 downto old_nn do
    dirty := nid :: !dirty
  done;
  List.iter (fun nid -> if not (List.mem nid !dirty) then dirty := nid :: !dirty) nets;
  List.iter
    (fun nid ->
      let n = Design.net d nid in
      t.routes.(nid) <- Route.route_net t.pl n;
      t.rc.(nid) <- Extract.extract_net t.pl t.routes.(nid) n;
      Sta.Tgraph.update_rc t.tg nid t.rc.(nid))
    !dirty;
  let stats = Sta.Tgraph.retime t.tg ~dirty_nets:!dirty ~dirty_insts:insts in
  Obs.Metrics.incr m_edits;
  stats

let touched_nets (i : Design.instance) ~old_nn =
  Array.to_list i.Design.conns
  |> List.filter (fun nid -> nid >= 0 && nid < old_nn)
  |> List.sort_uniq compare

(* ---- trial bookkeeping ---- *)

(* inside a trial, remember [nets] as they are before the edit that is
   about to re-route them *)
let save_nets t nets =
  if t.trial then begin
    let d = design t in
    List.iter
      (fun nid ->
        if not (List.exists (fun s -> s.s_nid = nid) t.saved) then begin
          let n = Design.net d nid in
          t.saved <-
            { s_nid = nid;
              s_route = t.routes.(nid);
              s_rc = t.rc.(nid);
              s_driver = n.Design.driver;
              s_sinks = n.Design.sinks;
              s_out_port = n.Design.out_port }
            :: t.saved
        end)
      nets
  end

let log_undo t u = if t.trial then t.undo <- u :: t.undo

(* mirror a structural edit into the graph without re-timing *)
let resync t ~nets ~insts =
  Sta.Tgraph.sync_topology t.tg ~nets ~insts;
  Obs.Metrics.incr m_edits

(* ---- structural edits, shared by the edits and their inverses ---- *)

(* [inst] becomes [cell] (identity pin map); its row's occupancy follows *)
let set_cell t ~inst ~cell =
  let d = design t in
  let i = Design.inst d inst in
  let old_width = i.Design.cell.Cell.width in
  let pins = List.init (Array.length i.Design.cell.Cell.pins) (fun k -> (k, k)) in
  Design.replace_cell d ~inst ~cell ~pin_map:pins;
  if Place.is_placed t.pl inst then begin
    let r = t.pl.Place.row.(inst) in
    t.pl.Place.row_used.(r) <- t.pl.Place.row_used.(r) +. cell.Cell.width -. old_width
  end

(* exchange the nets on two input pins; returns the nets touched *)
let exchange t ~inst ~pin_a ~pin_b =
  let d = design t in
  let i = Design.inst d inst in
  let na = i.Design.conns.(pin_a) and nb = i.Design.conns.(pin_b) in
  Design.disconnect d ~inst ~pin:pin_a;
  Design.disconnect d ~inst ~pin:pin_b;
  Design.connect d ~inst ~pin:pin_a ~net:nb;
  Design.connect d ~inst ~pin:pin_b ~net:na;
  List.sort_uniq compare [ na; nb ]

(* exact structural undo of the newest [insert_buffer]: the split moved
   the whole sink list, so unsplitting restores the net bit for bit; the
   buffer is unplaced and its graph/route mirror slots retired *)
let unbuffer t ~inst =
  let d = design t in
  let b = Design.inst d inst in
  let net = b.Design.conns.(0) and nb = b.Design.conns.(1) in
  Design.disconnect d ~inst ~pin:1;
  Design.disconnect d ~inst ~pin:0;
  Design.unsplit_net d ~net ~fresh:nb;
  Design.remove_last_instance d;
  Design.remove_last_net d;
  if Place.is_placed t.pl inst then begin
    let r = t.pl.Place.row.(inst) in
    t.pl.Place.row_used.(r) <-
      t.pl.Place.row_used.(r) -. b.Design.cell.Cell.width;
    t.pl.Place.x.(inst) <- Float.nan;
    t.pl.Place.row.(inst) <- -1
  end;
  (* retire the dead net's route: route stats iterate the raw array *)
  if nb < Array.length t.routes then t.routes.(nb) <- None;
  resync t ~nets:[ net ] ~insts:[]

(* ---- edits ---- *)

let insert_tp t ~net =
  if t.trial then invalid_arg "Retime.insert_tp: not undoable inside a trial";
  let d = design t in
  let old_ni = Design.num_insts d and old_nn = Design.num_nets d in
  let old_np = Util.Vec.length d.Design.ports in
  let near = anchor t net in
  let dom = Tpi.Clocking.domain_for d ~net in
  let clock_net = leaf_clock_for t ~dom ~near in
  let i = Tpi.Insert.insert_point ?clock_net d ~net ~index:t.next_tp in
  t.next_tp <- t.next_tp + 1;
  Layout.Eco.add_cell t.pl ~inst:i.Design.id ~near;
  let stats =
    refresh t ~old_ni ~old_nn ~old_np ~near ~nets:(touched_nets i ~old_nn) ~insts:[]
  in
  (i, stats)

let insert_buffer t ~net =
  let d = design t in
  let old_ni = Design.num_insts d and old_nn = Design.num_nets d in
  let old_np = Util.Vec.length d.Design.ports in
  let near = anchor t net in
  let n = Design.net d net in
  save_nets t [ net ];
  let buf = Stdcell.Library.min_drive_strength d.Design.lib Cell.Buf in
  let nb = Design.split_net d ~net ~name:(n.Design.nname ^ "_buf") in
  let b = Design.add_instance d ~name:(n.Design.nname ^ "_ecobuf") ~cell:buf in
  log_undo t (Unbuffer b.Design.id);
  Design.connect d ~inst:b.Design.id ~pin:0 ~net;
  Design.connect d ~inst:b.Design.id ~pin:1 ~net:nb.Design.nid;
  Layout.Eco.add_cell t.pl ~inst:b.Design.id ~near;
  let stats = refresh t ~old_ni ~old_nn ~old_np ~near ~nets:[ net ] ~insts:[] in
  (b, stats)

let resize t ~inst ~cell =
  let d = design t in
  let old_ni = Design.num_insts d and old_nn = Design.num_nets d in
  let old_np = Util.Vec.length d.Design.ports in
  let i = Design.inst d inst in
  if Array.length (cell : Cell.t).Cell.pins <> Array.length i.Design.cell.Cell.pins then
    invalid_arg "Retime.resize: pin interface differs";
  let nets = touched_nets i ~old_nn in
  save_nets t nets;
  log_undo t (Unresize (inst, i.Design.cell));
  set_cell t ~inst ~cell;
  let near =
    if Place.is_placed t.pl inst then Place.position t.pl inst
    else anchor t (List.hd nets)
  in
  refresh t ~old_ni ~old_nn ~old_np ~near ~nets ~insts:[ inst ]

let upsize t ~inst =
  let d = design t in
  match Stdcell.Library.upsize d.Design.lib (Design.inst d inst).Design.cell with
  | None -> None
  | Some bigger -> Some (resize t ~inst ~cell:bigger)

let downsize t ~inst =
  let d = design t in
  match Stdcell.Library.downsize d.Design.lib (Design.inst d inst).Design.cell with
  | None -> None
  | Some smaller -> Some (resize t ~inst ~cell:smaller)

let swap_pins t ~inst ~pin_a ~pin_b =
  let d = design t in
  let old_ni = Design.num_insts d and old_nn = Design.num_nets d in
  let old_np = Util.Vec.length d.Design.ports in
  let i = Design.inst d inst in
  let input p =
    p >= 0
    && p < Array.length i.Design.cell.Cell.pins
    && i.Design.cell.Cell.pins.(p).Stdcell.Pin.dir = Stdcell.Pin.Input
  in
  if not (input pin_a && input pin_b) then invalid_arg "Retime.swap_pins: not input pins";
  let na = i.Design.conns.(pin_a) and nb = i.Design.conns.(pin_b) in
  if na < 0 || nb < 0 then invalid_arg "Retime.swap_pins: disconnected pin";
  let nets = List.sort_uniq compare [ na; nb ] in
  save_nets t nets;
  log_undo t (Unswap (inst, pin_a, pin_b));
  ignore (exchange t ~inst ~pin_a ~pin_b : int list);
  refresh t ~old_ni ~old_nn ~old_np ~near:(anchor t na) ~nets ~insts:[ inst ]

(* ---- trials ---- *)

let open_trial t =
  if t.trial then invalid_arg "Retime.open_trial: a trial is already open";
  Sta.Tgraph.open_journal t.tg;
  t.trial <- true

let close_trial t =
  t.trial <- false;
  t.undo <- [];
  t.saved <- []

let commit t =
  if not t.trial then invalid_arg "Retime.commit: no open trial";
  Sta.Tgraph.commit t.tg;
  close_trial t

(* Revert the netlist edit by edit, newest first, with the writes the
   edits' own inverses make (design, placement, graph topology), then
   restore the journaled timing. A saved net whose connectivity came back
   as it was routes and extracts exactly as before the trial (both are
   pure per-net functions of it and of unchanged pin positions), so its
   saved route and parasitics are restored. Undoing a resize or a pin
   swap re-attaches the pin at the head of its nets' sink lists, so such
   a net is re-routed and re-extracted; where that moves a value the
   graph reads, the net is re-timed from the restored state. *)
let rollback t =
  if not t.trial then invalid_arg "Retime.rollback: no open trial";
  List.iter
    (function
      | Unbuffer inst -> unbuffer t ~inst
      | Unresize (inst, cell) ->
        let d = design t in
        set_cell t ~inst ~cell;
        resync t
          ~nets:(touched_nets (Design.inst d inst) ~old_nn:(Design.num_nets d))
          ~insts:[ inst ]
      | Unswap (inst, pin_a, pin_b) ->
        resync t ~nets:(exchange t ~inst ~pin_a ~pin_b) ~insts:[ inst ])
    t.undo;
  Sta.Tgraph.rollback t.tg;
  let d = design t in
  let dirty = ref [] in
  List.iter
    (fun s ->
      let nid = s.s_nid in
      let n = Design.net d nid in
      if n.Design.driver = s.s_driver && n.Design.sinks = s.s_sinks
         && n.Design.out_port = s.s_out_port
      then begin
        t.routes.(nid) <- s.s_route;
        t.rc.(nid) <- s.s_rc
      end
      else begin
        t.routes.(nid) <- Route.route_net t.pl n;
        t.rc.(nid) <- Extract.extract_net t.pl t.routes.(nid) n;
        if Sta.Tgraph.rc_differs t.tg nid t.rc.(nid) then dirty := nid :: !dirty;
        Sta.Tgraph.update_rc t.tg nid t.rc.(nid)
      end)
    t.saved;
  if !dirty <> [] then
    ignore (Sta.Tgraph.retime t.tg ~dirty_nets:!dirty ~dirty_insts:[] : Sta.Tgraph.retime_stats);
  close_trial t
