(* Post-route, parasitic-aware timing repair (DESIGN.md §6.7).

   Driven by WNS/TNS off the compiled timing graph, the engine walks the
   near-critical net set and trials three timing ECOs through the Retime
   context — buffer insertion on loaded critical nets, driver upsizing,
   and commutative-pin swapping — plus off-critical downsizing for area
   recovery. Every ECO is speculative: it is re-timed individually and
   accepted only if the (WNS, TNS) objective improves lexicographically,
   rolled back otherwise, without re-timing the cone. A rollback leaves
   the context exactly as a fresh route, extraction and analysis of the
   reverted design would (§6.6), and the report always describes a state
   no worse than the one repair started from. *)

module Design = Netlist.Design
module Cell = Stdcell.Cell
module Place = Layout.Place

(* criticality window: nets whose slack is within this of the worst *)
let margin_ps = 120.0

(* trial budget, applied once to the timing passes together and once
   more to the area-recovery pass *)
let max_edits = 200

(* sweeps over the (recomputed) critical set *)
let max_passes = 3

(* headroom every net of a downsize candidate must keep *)
let slack_guard_ps = 250.0

(* only nets with at least this many sinks get a trial buffer *)
let buffer_min_sinks = 2

type eco_kind = Insert_buffer | Upsize | Downsize | Swap_pins

type eco = {
  kind : eco_kind;
  target : string;
  accepted : bool;
  wns_gain_ps : float;
}

type report = {
  passes : int;
  tried : int;
  accepted : int;
  buffers_inserted : int;
  upsized : int;
  downsized : int;
  swapped : int;
  wns_before : float;
  tns_before : float;
  wns_after : float;
  tns_after : float;
  t_cp_before : float;
  t_cp_after : float;
  cell_area_before : float;
  cell_area_after : float;
  pre_sta : Sta.Analysis.t;
  sta : Sta.Analysis.t;
  route : Layout.Route.t;
  rc : Layout.Extract.net_rc array;
  edits : eco list;
}

let kind_name = function
  | Insert_buffer -> "buffer"
  | Upsize -> "upsize"
  | Downsize -> "downsize"
  | Swap_pins -> "swap"

let m_tried = Obs.Metrics.counter "repair.ecos_tried"
let m_accepted = Obs.Metrics.counter "repair.ecos_accepted"
let m_reverted = Obs.Metrics.counter "repair.ecos_reverted"
let m_buffers = Obs.Metrics.counter "repair.buffers_inserted"
let m_upsizes = Obs.Metrics.counter "repair.cells_upsized"
let m_downsizes = Obs.Metrics.counter "repair.cells_downsized"
let m_swaps = Obs.Metrics.counter "repair.pins_swapped"

(* the objective: worst then total negative slack off the live graph.
   WNS is the *smallest* slack regardless of sign, so repair keeps
   buying timing margin even when the design already closes — which is
   what turns the paper's Table 3 T_cp increases back down. *)
let objective ctx = Sta.Tgraph.wns_tns (Retime.tgraph ctx)

(* timing ECOs must strictly improve; ties are reverts (no free churn) *)
let better (w', t') (w, t) = w' > w || (w' = w && t' > t)

(* area ECOs must not degrade timing at all *)
let no_worse (w', t') (w, t) = w' >= w && t' >= t

let cell_area d = (Netlist.Stats.compute d).Netlist.Stats.cell_area

(* input pins that may be exchanged without changing the logic function:
   the n-ary symmetric kinds on all inputs, AOI21/OAI21 on A/B only
   (Y = !((A op B) op' C) is symmetric in A,B alone); Mux2's select and
   everything sequential are off limits *)
let commutative_pins (c : Cell.t) =
  let inputs =
    List.filter
      (fun p -> Stdcell.Pin.is_input c.Cell.pins.(p))
      (List.init (Array.length c.Cell.pins) Fun.id)
  in
  match c.Cell.kind with
  | Cell.Nand2 | Cell.Nand3 | Cell.Nor2 | Cell.Nor3 | Cell.And2 | Cell.Or2
  | Cell.Xor2 | Cell.Xnor2 ->
    inputs
  | Cell.Aoi21 | Cell.Oai21 ->
    (match inputs with a :: b :: _ -> [ a; b ] | _ -> [])
  | _ -> []

type engine = {
  ctx : Retime.t;
  mutable obj : float * float;
  mutable tried : int;
  mutable budget_base : int;
  (* [max_edits] is a per-phase budget: the area-recovery pass rebases the
     counter so exhausting the timing passes cannot starve it *)
  mutable accepted : int;
  mutable buffers : int;
  mutable upsizes : int;
  mutable downsizes : int;
  mutable swaps : int;
  mutable edits : eco list;  (* newest first *)
}

let budget_left e = e.tried - e.budget_base < max_edits

(* one speculative ECO: [apply] edits the context inside a Retime
   trial, which a rejection rolls back exactly. Records the trial, moves
   the objective on acceptance. *)
let trial e ~kind ~target ~accept apply =
  e.tried <- e.tried + 1;
  Obs.Metrics.incr m_tried;
  Retime.open_trial e.ctx;
  apply ();
  let obj' = objective e.ctx in
  let ok = accept obj' e.obj in
  if ok then begin
    Retime.commit e.ctx;
    e.accepted <- e.accepted + 1;
    Obs.Metrics.incr m_accepted
  end
  else begin
    Retime.rollback e.ctx;
    Obs.Metrics.incr m_reverted
  end;
  e.edits <-
    { kind; target; accepted = ok; wns_gain_ps = fst obj' -. fst e.obj } :: e.edits;
  if ok then e.obj <- obj';
  ok

let try_swap e ~inst ~fast_pin ~slow_pin =
  let d = Retime.design e.ctx in
  let i = Design.inst d inst in
  let target = Printf.sprintf "%s.%d<->%d" i.Design.iname fast_pin slow_pin in
  let swap () =
    ignore (Retime.swap_pins e.ctx ~inst ~pin_a:fast_pin ~pin_b:slow_pin)
  in
  if trial e ~kind:Swap_pins ~target ~accept:better swap then begin
    e.swaps <- e.swaps + 1;
    Obs.Metrics.incr m_swaps
  end

let try_upsize e ~inst =
  let d = Retime.design e.ctx in
  match Stdcell.Library.upsize d.Design.lib (Design.inst d inst).Design.cell with
  | None -> ()
  | Some _ ->
    let ok =
      trial e ~kind:Upsize ~target:(Design.inst d inst).Design.iname ~accept:better
        (fun () -> ignore (Retime.upsize e.ctx ~inst))
    in
    if ok then begin
      e.upsizes <- e.upsizes + 1;
      Obs.Metrics.incr m_upsizes
    end

let try_buffer e ~net =
  let d = Retime.design e.ctx in
  let target = (Design.net d net).Design.nname in
  let ok =
    trial e ~kind:Insert_buffer ~target ~accept:better (fun () ->
        ignore (Retime.insert_buffer e.ctx ~net))
  in
  if ok then begin
    e.buffers <- e.buffers + 1;
    Obs.Metrics.incr m_buffers
  end

let try_downsize e ~inst =
  let d = Retime.design e.ctx in
  match Stdcell.Library.downsize d.Design.lib (Design.inst d inst).Design.cell with
  | None -> ()
  | Some _ ->
    let ok =
      trial e ~kind:Downsize ~target:(Design.inst d inst).Design.iname
        ~accept:no_worse
        (fun () -> ignore (Retime.downsize e.ctx ~inst))
    in
    if ok then begin
      e.downsizes <- e.downsizes + 1;
      Obs.Metrics.incr m_downsizes
    end

(* near-critical nets, most critical first (ties by net id for
   determinism); critical_nets recomputes required times on demand, and
   every Retime edit invalidates them, so the set is always fresh *)
let critical_candidates e =
  let tg = Retime.tgraph e.ctx in
  let nets = Sta.Tgraph.critical_nets tg ~margin_ps in
  let slack_of nid =
    match Sta.Tgraph.net_slack tg nid with Some s -> s | None -> infinity
  in
  List.stable_sort
    (fun a b -> compare (slack_of a, a) (slack_of b, b))
    nets

(* all three timing levers on one critical net: move its latest signal to
   the fastest commutative pin of each sink, upsize its driver, and (on
   multi-sink nets) decouple the load behind a buffer *)
let repair_net e ~net =
  let d = Retime.design e.ctx in
  let sinks = (Design.net d net).Design.sinks in
  List.iter
    (fun (iid, pin) ->
      if budget_left e then begin
        let i = Design.inst d iid in
        let comm = commutative_pins i.Design.cell in
        match comm with
        | fast :: _ when List.mem pin comm && pin <> fast ->
          (* the critical signal sits on a slower commutative pin; only
             worth a trial if the fast pin carries a different net *)
          if i.Design.conns.(fast) >= 0 && i.Design.conns.(fast) <> net then
            try_swap e ~inst:iid ~fast_pin:fast ~slow_pin:pin
        | _ -> ()
      end)
    sinks;
  (if budget_left e then
     match (Design.net d net).Design.driver with
     | Design.Cell_pin (iid, _) -> try_upsize e ~inst:iid
     | _ -> ());
  if budget_left e && List.length sinks >= buffer_min_sinks then
    try_buffer e ~net

(* off-critical area recovery: shrink any combinational cell whose every
   incident net keeps [slack_guard_ps] of headroom, accepting only moves
   that leave (WNS, TNS) untouched or better. Clock buffers are excluded
   (their sizing was set by CTS/DRC) as are sequential cells. *)
let recover_area e =
  e.budget_base <- e.tried;
  let d = Retime.design e.ctx in
  let tg = Retime.tgraph e.ctx in
  Sta.Tgraph.compute_required tg;
  let relaxed nid =
    match Sta.Tgraph.net_slack tg nid with
    | Some s -> s >= slack_guard_ps
    | None -> true
  in
  let candidates = ref [] in
  Design.iter_insts d (fun i ->
      let c = i.Design.cell in
      if
        (not c.Cell.sequential)
        && c.Cell.kind <> Cell.Clkbuf
        && Array.length c.Cell.arcs > 0
        && c.Cell.drive > 1
        && Array.for_all (fun nid -> nid < 0 || relaxed nid) i.Design.conns
      then candidates := i.Design.id :: !candidates);
  List.iter
    (fun iid -> if budget_left e then try_downsize e ~inst:iid)
    (List.rev !candidates)

let run ?route ?rc (pl : Place.t) =
  Obs.Trace.with_span ~name:"flow.repair" @@ fun () ->
  let d = pl.Place.design in
  let cell_area_before = cell_area d in
  let route0 = match route with Some r -> r | None -> Layout.Route.run pl in
  let rc0 = match rc with Some r -> r | None -> Layout.Extract.run pl route0 in
  let ctx = Retime.create pl route0 rc0 in
  let pre_sta = Retime.analysis ctx in
  let t_cp_before = Option.value ~default:0.0 (Sta.Analysis.worst_tcp pre_sta) in
  let e =
    { ctx;
      obj = objective ctx;
      tried = 0;
      budget_base = 0;
      accepted = 0;
      buffers = 0;
      upsizes = 0;
      downsizes = 0;
      swaps = 0;
      edits = [] }
  in
  let wns_before, tns_before = e.obj in
  let passes = ref 0 in
  let continue_ = ref true in
  while !continue_ && !passes < max_passes && budget_left e do
    incr passes;
    let accepted_before = e.accepted in
    Obs.Trace.with_span ~name:"repair.pass"
      ~attrs:[ ("pass", Obs.Json.Int !passes) ]
      (fun () ->
        List.iter
          (fun net -> if budget_left e then repair_net e ~net)
          (critical_candidates e));
    if e.accepted = accepted_before then continue_ := false
  done;
  Obs.Trace.with_span ~name:"repair.area-recovery" (fun () -> recover_area e);
  let sta = Retime.analysis ctx in
  let wns_after, tns_after = e.obj in
  { passes = !passes;
    tried = e.tried;
    accepted = e.accepted;
    buffers_inserted = e.buffers;
    upsized = e.upsizes;
    downsized = e.downsizes;
    swapped = e.swaps;
    wns_before;
    tns_before;
    wns_after;
    tns_after;
    t_cp_before;
    t_cp_after = Option.value ~default:0.0 (Sta.Analysis.worst_tcp sta);
    cell_area_before;
    cell_area_after = cell_area d;
    pre_sta;
    sta;
    route = Retime.route ctx;
    rc = Retime.rc ctx;
    edits = List.rev e.edits }
