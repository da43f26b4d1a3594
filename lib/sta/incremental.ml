(* Worklist-driven incremental re-timing on the flat graph.

   Given the nets an edit physically touched (re-extracted parasitics,
   split/rewired connectivity) and the instances it edited (resizes,
   fresh cells), seed the worklist with the dirty frontier — each dirty
   net's driver plus its timing consumers — and re-evaluate level by
   level. An instance re-eval resets its output net to the propagation
   seed and replays its arcs in declaration order, which reproduces bit
   for bit what a from-scratch pass computes for that net; propagation
   stops at nets whose (arrival, slew, provenance) came out unchanged.
   Required times are then patched backward from the nets that changed.

   The contract (DESIGN.md §6.6): after [Tgraph.sync_topology] and
   [update_rc] for every touched net, [retime] leaves the graph in the
   exact state a full [Tgraph.propagate] would — enforced by the QCheck
   random-ECO property against an independent reference propagator.

   Bookkeeping lands in its own [sta.incremental.*] counters, never in
   the whole-graph [sta.*] ones.

   The worklist membership flags are the graph's own scratch arrays
   (sized with it, all-false between calls): a repair sweep retimes
   thousands of times, and fresh instance- and net-sized arrays per call
   would go straight to the major heap. *)

module Design = Netlist.Design

let m_retimes = Obs.Metrics.counter "sta.incremental.retimes"
let m_arcs = Obs.Metrics.counter "sta.incremental.arcs_evaluated"
let m_insts = Obs.Metrics.counter "sta.incremental.insts_evaluated"
let m_changed = Obs.Metrics.counter "sta.incremental.nets_changed"
let m_settled = Obs.Metrics.counter "sta.incremental.nets_settled"
let m_required = Obs.Metrics.counter "sta.incremental.required_patched"
let g_slow_nodes = Obs.Metrics.gauge "sta.slow_nodes"

type stats = {
  insts_evaluated : int;   (* instances re-evaluated forward *)
  nets_changed : int;      (* nets whose (arrival, slew, provenance) moved *)
  nets_settled : int;      (* re-evaluated outputs that came out unchanged *)
  required_patched : int;  (* nets whose required time was recomputed *)
}

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* ---- forward: level-bucketed worklist ---- *)

let retime t ~dirty_nets ~dirty_insts =
  Obs.Metrics.incr m_retimes;
  let d = Tgraph.design t in
  let arrival, slew, from_inst, from_pin = Tgraph.arrival_arrays t in
  let ni = Tgraph.num_insts t in
  let nlev = Tgraph.max_level t + 1 in
  let buckets = Array.make nlev [] in
  let queued = Tgraph.inst_scratch t in
  let enqueue iid =
    if iid >= 0 && iid < ni && not queued.(iid) then begin
      queued.(iid) <- true;
      buckets.(Tgraph.level t iid) <- iid :: buckets.(Tgraph.level t iid)
    end
  in
  let consumers_of nid f =
    List.iter
      (fun (sid, pin) -> if Tgraph.is_timing_input t sid pin then f sid)
      (Design.net d nid).Design.sinks
  in
  (* frontier: a dirty net's parasitics feed both its driver (load) and
     its consumers (sink arrival/slew) *)
  List.iter
    (fun nid ->
      enqueue (Tgraph.driver_of t nid);
      consumers_of nid enqueue)
    dirty_nets;
  List.iter enqueue dirty_insts;
  let insts_evaluated = ref 0 in
  let nets_changed = ref 0 and nets_settled = ref 0 in
  let changed_nets = ref [] in
  for l = 0 to nlev - 1 do
    List.iter
      (fun iid ->
        queued.(iid) <- false;
        incr insts_evaluated;
        Obs.Metrics.incr m_insts;
        Tgraph.reset_slow t iid;
        match Tgraph.out_net t iid with
        | -1 -> ()
        | on ->
          let old_arr = arrival.(on) and old_slew = slew.(on) in
          let old_fi = from_inst.(on) and old_fp = from_pin.(on) in
          Tgraph.reset_net t on;
          Tgraph.eval_inst t m_arcs iid;
          if
            same_float old_arr arrival.(on)
            && same_float old_slew slew.(on)
            && old_fi = from_inst.(on) && old_fp = from_pin.(on)
          then begin
            incr nets_settled;
            Obs.Metrics.incr m_settled
          end
          else begin
            incr nets_changed;
            Obs.Metrics.incr m_changed;
            changed_nets := on :: !changed_nets;
            consumers_of on enqueue
          end)
      (List.rev buckets.(l))
  done;
  Obs.Metrics.set g_slow_nodes (float_of_int (Tgraph.count_slow t));
  (* ---- backward: patch required times where the forward pass moved ---- *)
  let required_patched = ref 0 in
  if Tgraph.required_is_valid t then begin
    let required = Tgraph.required_array t in
    let nn = Tgraph.num_nets t in
    let nqueued = Tgraph.net_scratch t in
    let nbuckets = Array.make nlev [] in
    let nenqueue nid =
      if nid >= 0 && nid < nn && not nqueued.(nid) then begin
        nqueued.(nid) <- true;
        nbuckets.(Tgraph.net_level t nid) <- nid :: nbuckets.(Tgraph.net_level t nid)
      end
    in
    (* a net's required moves when its own forward state or parasitics
       moved, when a consumer net's load changed, or — for data nets —
       when the clock arrival at a capturing element moved *)
    let seed nid =
      nenqueue nid;
      let drv = Tgraph.driver_of t nid in
      if drv >= 0 then begin
        let i = Design.inst d drv in
        Array.iter (fun inn -> if inn >= 0 && inn <> nid then nenqueue inn) i.Design.conns
      end;
      List.iter nenqueue (Tgraph.data_sinks_of_clock t nid)
    in
    List.iter seed !changed_nets;
    List.iter seed dirty_nets;
    for l = nlev - 1 downto 0 do
      List.iter
        (fun nid ->
          nqueued.(nid) <- false;
          let r = Tgraph.required_of t nid in
          incr required_patched;
          Obs.Metrics.incr m_required;
          if not (same_float r required.(nid)) then begin
            required.(nid) <- r;
            (* propagate upstream: the driver's input nets read this
               required *)
            let drv = Tgraph.driver_of t nid in
            if drv >= 0 then begin
              let i = Design.inst d drv in
              Array.iter (fun inn -> if inn >= 0 then nenqueue inn) i.Design.conns
            end
          end)
        nbuckets.(l)
    done;
    Tgraph.set_required_valid t
  end;
  { insts_evaluated = !insts_evaluated;
    nets_changed = !nets_changed;
    nets_settled = !nets_settled;
    required_patched = !required_patched }
