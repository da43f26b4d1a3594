module Design = Netlist.Design

type options = {
  tp_percent : float;
  chain_config : Scan.Chains.config;
  utilization : float;
  run_atpg : bool;
  blocked_nets : int list;
  seed : int;
  cache : Cache.Store.t option;
  lint : bool;
  repair : bool;
}

let default_options =
  { tp_percent = 0.0;
    chain_config = Scan.Chains.Max_length 100;
    utilization = 0.97;
    run_atpg = true;
    blocked_nets = [];
    seed = 0x71C0;
    cache = None;
    lint = false;
    repair = false }

(* Every stage product, as one immutable record: a stage body reads its
   prerequisites from it and replaces it with a copy carrying its own
   slots, and a layout's cache entry holds this record (marshalled
   whole, so aliasing between the design and e.g. the placement's
   back-reference survives the round trip). *)
type products = {
  design : Design.t;
  tp_count : int;
  tpi_report : Tpi.Select.report option;
  placement : Layout.Place.t option;
  chains : Scan.Chains.t option;
  reorder : Scan.Reorder.result option;
  atpg : Atpg.Patgen.outcome option;
  tdv_bits : int;
  tat_cycles : int;
  cts : Layout.Cts.report option;
  drc : Layout.Drc.report option;
  filler : Layout.Filler.report option;
  route : Layout.Route.t option;
  rc : Layout.Extract.net_rc array option;
  sta : Sta.Analysis.t option;
  repair : Repair.report option;
}

type result = {
  design : Netlist.Design.t;
  options : options;
  tp_count : int;
  tpi_report : Tpi.Select.report option;
  chains : Scan.Chains.t;
  reorder : Scan.Reorder.result;
  atpg : Atpg.Patgen.outcome option;
  tdv_bits : int;
  tat_cycles : int;
  placement : Layout.Place.t;
  cts : Layout.Cts.report;
  filler : Layout.Filler.report;
  route : Layout.Route.t;
  rc : Layout.Extract.net_rc array;
  sta : Sta.Analysis.t;
  repair : Repair.report option;
  stats : Netlist.Stats.t;
  drc : Layout.Drc.report;
}

(* The seven Figure-2 stages, run one at a time by Flow.Guard, which
   times, checks and retries them. *)

type state = {
  s_options : options;
  mutable s_products : products;
}

let init ?(options = default_options) (d : Design.t) =
  { s_options = options;
    s_products =
      { design = d;
        tp_count = 0;
        tpi_report = None;
        placement = None;
        chains = None;
        reorder = None;
        atpg = None;
        tdv_bits = 0;
        tat_cycles = 0;
        cts = None;
        drc = None;
        filler = None;
        route = None;
        rc = None;
        sta = None;
        repair = None } }

let need what = function
  | Some v -> v
  | None -> invalid_arg ("Flow.Pipeline: stage run out of order, missing " ^ what)

(* every stage body runs inside a span, so the kernels nest underneath it
   in traces *)
let stage_span st name f =
  Obs.Trace.with_span ~name:("pipeline." ^ name)
    ~attrs:[ ("tp_percent", Obs.Json.Float st.s_options.tp_percent) ]
    f

(* --- step 1: TPI and scan insertion --- *)
let stage_tpi_scan st =
  stage_span st "tpi-scan" @@ fun () ->
  let p = st.s_products and options = st.s_options in
  let d = p.design in
  let ffs_before = List.length (Design.ffs d) in
  let tp_count =
    int_of_float (Float.round (options.tp_percent *. float_of_int ffs_before /. 100.0))
  in
  let tpi_report =
    if tp_count > 0 then
      Some (Tpi.Select.run ~blocked_nets:options.blocked_nets d ~count:tp_count)
    else None
  in
  let (_ : int) = Scan.Replace.run d in
  st.s_products <- { p with tp_count; tpi_report }

(* --- step 2: floorplanning and placement --- *)
let stage_place st =
  stage_span st "place" @@ fun () ->
  let p = st.s_products and options = st.s_options in
  let fp = Layout.Floorplan.create ~utilization:options.utilization p.design in
  st.s_products <-
    { p with placement = Some (Layout.Place.run ~seed:options.seed p.design fp) }

(* --- step 3: layout-driven scan reordering, then ATPG --- *)
let stage_reorder_atpg st =
  stage_span st "reorder-atpg" @@ fun () ->
  let p = st.s_products and options = st.s_options in
  let d = p.design in
  let placement = need "placement" p.placement in
  let position iid = Layout.Place.position placement iid in
  let reorder = Scan.Reorder.run d ~config:options.chain_config ~position in
  let chains = reorder.Scan.Reorder.plan in
  let atpg =
    if options.run_atpg then begin
      let m = Netlist.Cmodel.build d in
      Some (Atpg.Patgen.run m)
    end
    else None
  in
  let patterns = match atpg with Some o -> Atpg.Patgen.num_patterns o | None -> 0 in
  let lmax = chains.Scan.Chains.lmax in
  st.s_products <-
    { p with
      reorder = Some reorder;
      chains = Some chains;
      atpg;
      tdv_bits =
        (if patterns = 0 then 0
         else Atpg.Tdv.tdv ~chains:(Scan.Chains.num_chains chains) ~lmax ~patterns);
      tat_cycles = (if patterns = 0 then 0 else Atpg.Tdv.tat ~lmax ~patterns) }

(* --- step 4: ECO (reorder buffers), clock trees, filler, routing --- *)
let stage_eco_route st =
  stage_span st "eco-cts-route" @@ fun () ->
  let p = st.s_products in
  let placement = need "placement" p.placement in
  let reorder = need "reorder" p.reorder in
  List.iter
    (fun (iid, near) -> Layout.Eco.add_cell placement ~inst:iid ~near)
    reorder.Scan.Reorder.new_buffers;
  let cts = Obs.Trace.with_span ~name:"layout.cts" (fun () -> Layout.Cts.run placement) in
  let drc =
    Obs.Trace.with_span ~name:"layout.drc" (fun () -> Layout.Drc.fix_max_cap placement)
  in
  let filler =
    Obs.Trace.with_span ~name:"layout.filler" (fun () -> Layout.Filler.run placement)
  in
  let route = Layout.Route.run placement in
  st.s_products <-
    { p with cts = Some cts; drc = Some drc; filler = Some filler; route = Some route }

(* --- step 5: extraction --- *)
let stage_extract st =
  stage_span st "extract" @@ fun () ->
  let p = st.s_products in
  let placement = need "placement" p.placement in
  let route = need "route" p.route in
  st.s_products <- { p with rc = Some (Layout.Extract.run placement route) }

(* --- step 6: static timing analysis --- *)
let stage_sta st =
  stage_span st "sta" @@ fun () ->
  let p = st.s_products in
  let rc = need "rc" p.rc in
  let tg = Sta.Tgraph.compile p.design rc in
  Sta.Tgraph.propagate tg;
  st.s_products <- { p with sta = Some (Sta.Tgraph.analysis tg) }

(* --- step 7: post-route timing repair (off by default) --- *)
let stage_repair st =
  if st.s_options.repair then
    stage_span st "repair" @@ fun () ->
    let p = st.s_products in
    let placement = need "placement" p.placement in
    let route = need "route" p.route in
    let rc = need "rc" p.rc in
    let r = Repair.run ~route ~rc placement in
    (* downstream slots move to the repaired state *)
    st.s_products <-
      { p with
        repair = Some r;
        route = Some r.Repair.route;
        rc = Some r.Repair.rc;
        sta = Some r.Repair.sta }

let finish st =
  let p = st.s_products in
  { design = p.design;
    options = st.s_options;
    tp_count = p.tp_count;
    tpi_report = p.tpi_report;
    chains = need "chains" p.chains;
    reorder = need "reorder" p.reorder;
    atpg = p.atpg;
    tdv_bits = p.tdv_bits;
    tat_cycles = p.tat_cycles;
    placement = need "placement" p.placement;
    cts = need "cts" p.cts;
    filler = need "filler" p.filler;
    route = need "route" p.route;
    rc = need "rc" p.rc;
    sta = need "sta" p.sta;
    repair = p.repair;
    stats = Netlist.Stats.compute p.design;
    drc = need "drc" p.drc }

(* ---- layout cache (lib/cache) ----

   A layout is the unit of caching. Its key digests the cache version, a
   fingerprint of every option a stage can read and a fingerprint of the
   input design. Every stage is a deterministic function of the design and
   options it starts from, so the key pins the whole layout, including the
   products that live outside the netlist (the placement, the route, ...).
   An entry is the finished products record together with the exact
   metrics delta of each stage, replayed on a hit, which keeps cached and
   uncached runs byte-identical in tables and kernel counters (DESIGN.md
   §6.2); only the [cache.*] counters themselves may differ. The deltas
   are captured per stage because the guard's own counters and its
   [on_stage] hook run between the stages and must stay out of them. The
   entry is stored once the last stage's checks have passed, so its
   presence means every check passed; a failed or cancelled attempt
   stores nothing. *)

(* bump whenever the products layout or any stage semantics change: old
   on-disk entries then simply never match a key again *)
let cache_version = "tpi-stage-cache-v9"

(* every option a stage outcome can depend on; the cache itself and the
   lint flag (read-only over the design) are deliberately excluded.
   Marshal of this immutable tuple of scalars and plain variants is
   byte-stable. *)
let options_fingerprint o =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( o.tp_percent, o.chain_config, o.utilization, o.run_atpg, o.blocked_nets,
            o.seed, o.repair )
          []))

type cache_entry = {
  e_products : products;
  e_metrics : Obs.Metrics.local list;  (* each stage's exact delta, in order *)
}

type cache =
  | Uncached
  | Served
  | Filling of {
      store : Cache.Store.t;
      key : string;
      mutable deltas : Obs.Metrics.local list;  (* newest first *)
    }

let m_hits = Obs.Metrics.counter "cache.stage_hits"
let m_misses = Obs.Metrics.counter "cache.stage_misses"

let cache_open (st : state) =
  match st.s_options.cache with
  | None -> Uncached
  | Some store ->
    let key =
      Cache.Store.key
        [ cache_version; options_fingerprint st.s_options;
          Design.fingerprint st.s_products.design ]
    in
    (match Cache.Store.find store key with
     | Some bytes ->
       let entry : cache_entry = Marshal.from_string bytes 0 in
       st.s_products <- entry.e_products;
       List.iter Obs.Metrics.absorb entry.e_metrics;
       Served
     | None -> Filling { store; key; deltas = [] })

let run_stage cache run (st : state) =
  match cache with
  | Uncached -> run st
  | Served -> Obs.Metrics.incr m_hits
  | Filling f ->
    let (), delta = Obs.Metrics.with_scoped (fun () -> run st) in
    f.deltas <- delta :: f.deltas;
    Obs.Metrics.incr m_misses

let cache_close cache (st : state) =
  match cache with
  | Filling f ->
    Cache.Store.add f.store f.key
      (Marshal.to_string { e_products = st.s_products; e_metrics = List.rev f.deltas } [])
  | Uncached | Served -> ()

(* read-only gate ahead of the first stage: a design that would mis-build
   (combinational loops, multi-driven nets, mis-clocked test points, ...)
   is rejected before any stage spends time on it *)
let preflight ~options d =
  if options.lint then Lint.Engine.gate (Lint.Engine.run d)
