module Design = Netlist.Design

type options = {
  tp_percent : float;
  chain_config : Scan.Chains.config;
  utilization : float;
  run_atpg : bool;
  tpi_config : Tpi.Select.config;
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
    tpi_config = Tpi.Select.default_config;
    seed = 0x71C0;
    cache = None;
    lint = false;
    repair = false }

(* Every stage product, as one immutable record: a stage body reads its
   prerequisites from it and replaces it with a copy carrying its own
   slots, and a stage-cache entry is exactly this record (marshalled
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
  lint_report : Lint.Engine.report option;
  stats : Netlist.Stats.t;
  drc : Layout.Drc.report;
}

(* The seven Figure-2 stages, run one at a time by Flow.Guard, which
   times, checks and retries them. *)

type state = {
  s_options : options;
  mutable s_products : products;
  (* post-layout lint report; outside the stage cache, like any product of
     a stage body that only runs on a miss *)
  mutable s_lint : Lint.Engine.report option;
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
        repair = None };
    s_lint = None }

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
    if tp_count > 0 then Some (Tpi.Select.run ~config:options.tpi_config d ~count:tp_count)
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
  let a = Sta.Tgraph.analysis tg in
  st.s_products <- { p with sta = Some a };
  (* with the graph still warm, the TPI/timing lint pack gets real
     post-layout artifacts for free: the slack report and the
     near-critical net set fall out of the arrival/required arrays
     instead of the zero-parasitic graph the pack falls back to *)
  if st.s_options.lint then begin
    let arts =
      { Lint.Rule.no_artifacts with
        Lint.Rule.slack = Some (Sta.Tgraph.slack tg);
        crit_nets = Some (Lint.Tpitiming.critical_nets tg a) }
    in
    let rules =
      List.concat_map
        (fun pack ->
          Option.value ~default:[] (Lint.Engine.find_pack pack))
        [ Lint.Tpitiming.pack_name; Lint.Tpirepair.pack_name ]
    in
    st.s_lint <- Some (Lint.Engine.run ~arts ~rules p.design)
  end

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
    lint_report = st.s_lint;
    stats = Netlist.Stats.compute p.design;
    drc = need "drc" p.drc }

(* ---- stage cache (lib/cache) ----

   The key chain starts from one root key: the cache version, a
   fingerprint of every option a stage can read and a fingerprint of the
   input design. Each stage's key is then [name; previous key]. Every
   stage is a deterministic function of the design and options it starts
   from, so the chain pins every input a stage can see, including the
   products that live outside the netlist (the placement, the route, ...).
   An entry is the post-stage products record, whole and cumulative, so a
   hit always restores a state consistent with its chain; it also holds
   the exact metrics delta of every stage up to it, replayed on a hit to
   keep cached and uncached runs byte-identical in tables and kernel
   counters (DESIGN.md §6.2). Only the [cache.*] counters themselves may
   differ.

   A stage's run (its body and its post-stage checks) is stored only once
   it has returned, so an entry's presence means its checks passed. A
   present entry is therefore not read at all until a later stage needs
   the products: a hit is deferred, and [settle] loads only the newest
   deferred entry, whose cumulative record covers every hit before it. *)

(* bump whenever the products layout or any stage semantics change: old
   on-disk entries then simply never match a key again *)
let cache_version = "tpi-stage-cache-v6"

(* every option a stage outcome can depend on; the cache itself and the
   lint flag (read-only over the design) are deliberately excluded.
   Marshal of this immutable tuple of scalars and plain variants is
   byte-stable. *)
let options_fingerprint o =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( o.tp_percent, o.chain_config, o.utilization, o.run_atpg, o.tpi_config,
            o.seed, o.repair )
          []))

type cache_ctx = {
  ck_store : Cache.Store.t;
  mutable ck_prev : string;  (* previous stage's key: the chain *)
  mutable ck_deferred : (string * (state -> unit)) list;
      (* present entries not loaded yet, newest first, with their runs *)
  mutable ck_deltas : Obs.Metrics.local list;
      (* the metrics delta of each stage the state's products cover, in
         stage order; all of them are already counted *)
}

let cache_ctx (st : state) =
  match st.s_options.cache with
  | None -> None
  | Some store ->
    let root =
      Cache.Store.key
        [ cache_version; options_fingerprint st.s_options;
          Design.fingerprint st.s_products.design ]
    in
    Some { ck_store = store; ck_prev = root; ck_deferred = []; ck_deltas = [] }

type cache_entry = {
  e_products : products;
  e_metrics : Obs.Metrics.local list;  (* every stage's exact delta, in order *)
}

let m_hits = Obs.Metrics.counter "cache.stage_hits"
let m_misses = Obs.Metrics.counter "cache.stage_misses"

(* assign a stored entry and count the deltas of the stages it adds *)
let restore ctx (st : state) bytes =
  let entry : cache_entry = Marshal.from_string bytes 0 in
  let known = List.length ctx.ck_deltas in
  List.iteri (fun i d -> if i >= known then Obs.Metrics.absorb d) entry.e_metrics;
  ctx.ck_deltas <- entry.e_metrics;
  st.s_products <- entry.e_products

let compute ctx key run (st : state) =
  let bytes, hit =
    Cache.Store.find_or_compute ctx.ck_store ~key (fun () ->
        let (), delta = Obs.Metrics.with_scoped (fun () -> run st) in
        ctx.ck_deltas <- ctx.ck_deltas @ [ delta ];
        Marshal.to_string { e_products = st.s_products; e_metrics = ctx.ck_deltas } [])
  in
  if hit then begin
    Obs.Metrics.incr m_hits;
    restore ctx st bytes
  end
  else Obs.Metrics.incr m_misses

(* Load the newest deferred entry that reads back. A deferred entry that
   does not (corrupt, or evicted since it was seen) is recomputed from
   the one before it, or from the state the deferral began at. *)
let rec settle_ctx ctx st =
  match ctx.ck_deferred with
  | [] -> ()
  | (key, run) :: older ->
    (match Cache.Store.find ctx.ck_store key with
     | Some bytes ->
       Obs.Metrics.add m_hits (List.length ctx.ck_deferred);
       ctx.ck_deferred <- [];
       restore ctx st bytes
     | None ->
       ctx.ck_deferred <- older;
       settle_ctx ctx st;
       compute ctx key run st)

let settle ctx st = Option.iter (fun ctx -> settle_ctx ctx st) ctx

let cached_stage ctx name run (st : state) =
  match ctx with
  | None -> run st
  | Some ctx ->
    let key = Cache.Store.key [ name; ctx.ck_prev ] in
    ctx.ck_prev <- key;
    if Cache.Store.mem ctx.ck_store key then ctx.ck_deferred <- (key, run) :: ctx.ck_deferred
    else begin
      settle_ctx ctx st;
      compute ctx key run st
    end

(* read-only gate ahead of the first stage: a design that would mis-build
   (combinational loops, multi-driven nets, mis-clocked test points, ...)
   is rejected before any stage spends time on it *)
let preflight ~options d =
  if options.lint then Lint.Engine.gate (Lint.Engine.run d)
