module Design = Netlist.Design

type options = {
  tp_percent : float;
  chain_config : Scan.Chains.config;
  utilization : float;
  run_atpg : bool;
  atpg_config : Atpg.Patgen.config;
  tpi_config : Tpi.Select.config;
  seed : int;
  pool : Par.Pool.t option;
  cache : Cache.Store.t option;
  cancel : Cancel.t option;
  lint : bool;
  repair : bool;
  repair_config : Repair.config;
}

let default_options =
  { tp_percent = 0.0;
    chain_config = Scan.Chains.Max_length 100;
    utilization = 0.97;
    run_atpg = true;
    atpg_config = Atpg.Patgen.default_config;
    tpi_config = Tpi.Select.default_config;
    seed = 0x71C0;
    pool = None;
    cache = None;
    cancel = None;
    lint = false;
    repair = false;
    repair_config = Repair.default_config }

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

(* The six Figure-2 stages, split so a guarded runner (Flow.Guard) can
   execute, time, check and retry them one at a time. Each stage reads its
   prerequisites from the state and fills in its own slots; [run] below
   composes them into the original straight-line flow. *)

type state = {
  mutable s_design : Design.t;
  s_options : options;
  mutable s_tp_count : int;
  mutable s_tpi_report : Tpi.Select.report option;
  mutable s_placement : Layout.Place.t option;
  mutable s_chains : Scan.Chains.t option;
  mutable s_reorder : Scan.Reorder.result option;
  mutable s_atpg : Atpg.Patgen.outcome option;
  mutable s_tdv_bits : int;
  mutable s_tat_cycles : int;
  mutable s_cts : Layout.Cts.report option;
  mutable s_drc : Layout.Drc.report option;
  mutable s_filler : Layout.Filler.report option;
  mutable s_route : Layout.Route.t option;
  mutable s_rc : Layout.Extract.net_rc array option;
  mutable s_sta : Sta.Analysis.t option;
  mutable s_repair : Repair.report option;
  (* post-layout lint report; outside the stage-cache snapshot, like any
     product of a stage body that only runs on a miss *)
  mutable s_lint : Lint.Engine.report option;
}

let init ?(options = default_options) (d : Design.t) =
  { s_design = d;
    s_options = options;
    s_tp_count = 0;
    s_tpi_report = None;
    s_placement = None;
    s_chains = None;
    s_reorder = None;
    s_atpg = None;
    s_tdv_bits = 0;
    s_tat_cycles = 0;
    s_cts = None;
    s_drc = None;
    s_filler = None;
    s_route = None;
    s_rc = None;
    s_sta = None;
    s_repair = None;
    s_lint = None }

let need what = function
  | Some v -> v
  | None -> invalid_arg ("Flow.Pipeline: stage run out of order, missing " ^ what)

(* every stage body runs inside a span, so guarded and unguarded runs
   alike show up in traces with the kernels nested underneath *)
let stage_span st name f =
  Obs.Trace.with_span ~name:("pipeline." ^ name)
    ~attrs:[ ("tp_percent", Obs.Json.Float st.s_options.tp_percent) ]
    f

(* --- step 1: TPI and scan insertion --- *)
let stage_tpi_scan st =
  stage_span st "tpi-scan" @@ fun () ->
  let d = st.s_design and options = st.s_options in
  let ffs_before = List.length (Design.ffs d) in
  let tp_count =
    int_of_float (Float.round (options.tp_percent *. float_of_int ffs_before /. 100.0))
  in
  st.s_tp_count <- tp_count;
  st.s_tpi_report <-
    (if tp_count > 0 then Some (Tpi.Select.run ~config:options.tpi_config d ~count:tp_count)
     else None);
  let (_ : int) = Scan.Replace.run d in
  ()

(* --- step 2: floorplanning and placement --- *)
let stage_place st =
  stage_span st "place" @@ fun () ->
  let d = st.s_design and options = st.s_options in
  let fp = Layout.Floorplan.create ~utilization:options.utilization d in
  st.s_placement <- Some (Layout.Place.run ~seed:options.seed d fp)

(* --- step 3: layout-driven scan reordering, then ATPG --- *)
let stage_reorder_atpg st =
  stage_span st "reorder-atpg" @@ fun () ->
  let d = st.s_design and options = st.s_options in
  let placement = need "placement" st.s_placement in
  let position iid = Layout.Place.position placement iid in
  let reorder = Scan.Reorder.run d ~config:options.chain_config ~position in
  let chains = reorder.Scan.Reorder.plan in
  st.s_reorder <- Some reorder;
  st.s_chains <- Some chains;
  let atpg =
    if options.run_atpg then begin
      let m = Netlist.Cmodel.build d in
      Some (Atpg.Patgen.run ?pool:options.pool ~config:options.atpg_config m)
    end
    else None
  in
  st.s_atpg <- atpg;
  let patterns = match atpg with Some o -> Atpg.Patgen.num_patterns o | None -> 0 in
  st.s_tdv_bits <-
    (if patterns = 0 then 0
     else
       Atpg.Tdv.tdv ~chains:(Scan.Chains.num_chains chains) ~lmax:chains.Scan.Chains.lmax
         ~patterns);
  st.s_tat_cycles <-
    (if patterns = 0 then 0 else Atpg.Tdv.tat ~lmax:chains.Scan.Chains.lmax ~patterns)

(* --- step 4: ECO (reorder buffers), clock trees, filler, routing --- *)
let stage_eco_route st =
  stage_span st "eco-cts-route" @@ fun () ->
  let placement = need "placement" st.s_placement in
  let reorder = need "reorder" st.s_reorder in
  List.iter
    (fun (iid, near) -> Layout.Eco.add_cell placement ~inst:iid ~near)
    reorder.Scan.Reorder.new_buffers;
  st.s_cts <- Some (Obs.Trace.with_span ~name:"layout.cts" (fun () -> Layout.Cts.run placement));
  st.s_drc <-
    Some (Obs.Trace.with_span ~name:"layout.drc" (fun () -> Layout.Drc.fix_max_cap placement));
  st.s_filler <-
    Some (Obs.Trace.with_span ~name:"layout.filler" (fun () -> Layout.Filler.run placement));
  st.s_route <- Some (Layout.Route.run placement)

(* --- step 5: extraction --- *)
let stage_extract st =
  stage_span st "extract" @@ fun () ->
  let placement = need "placement" st.s_placement in
  let route = need "route" st.s_route in
  st.s_rc <- Some (Layout.Extract.run placement route)

(* --- step 6: static timing analysis --- *)
let stage_sta st =
  stage_span st "sta" @@ fun () ->
  let rc = need "rc" st.s_rc in
  let tg = Sta.Tgraph.compile st.s_design rc in
  Sta.Tgraph.propagate ?pool:st.s_options.pool tg;
  let a = Sta.Tgraph.analysis tg in
  st.s_sta <- Some a;
  (* with the graph still warm, the TPI/timing lint pack gets real
     post-layout artifacts for free: the slack report and the
     near-critical net set fall out of the arrival/required arrays
     instead of the zero-wireload estimate the pack falls back to *)
  if st.s_options.lint then begin
    let tcp = Option.value ~default:0.0 (Sta.Analysis.worst_tcp a) in
    let margin_ps = Lint.Tpitiming.near_critical_margin *. tcp in
    let arts =
      { Lint.Rule.no_artifacts with
        Lint.Rule.slack = Some (Sta.Tgraph.slack tg);
        crit_nets = Some (Sta.Tgraph.critical_nets tg ~margin_ps) }
    in
    let rules =
      List.concat_map
        (fun pack ->
          Option.value ~default:[] (Lint.Engine.find_pack pack))
        [ Lint.Tpitiming.pack_name; Lint.Tpirepair.pack_name ]
    in
    st.s_lint <- Some (Lint.Engine.run ~arts ~rules st.s_design)
  end

(* --- step 7: post-route timing repair (off by default) --- *)
let stage_repair st =
  if st.s_options.repair then
    stage_span st "repair" @@ fun () ->
    let placement = need "placement" st.s_placement in
    let route = need "route" st.s_route in
    let rc = need "rc" st.s_rc in
    let r = Repair.run ~config:st.s_options.repair_config ~route ~rc placement in
    st.s_repair <- Some r;
    (* downstream slots move to the repaired state *)
    st.s_route <- Some r.Repair.route;
    st.s_rc <- Some r.Repair.rc;
    st.s_sta <- Some r.Repair.sta

let finish st =
  { design = st.s_design;
    options = st.s_options;
    tp_count = st.s_tp_count;
    tpi_report = st.s_tpi_report;
    chains = need "chains" st.s_chains;
    reorder = need "reorder" st.s_reorder;
    atpg = st.s_atpg;
    tdv_bits = st.s_tdv_bits;
    tat_cycles = st.s_tat_cycles;
    placement = need "placement" st.s_placement;
    cts = need "cts" st.s_cts;
    filler = need "filler" st.s_filler;
    route = need "route" st.s_route;
    rc = need "rc" st.s_rc;
    sta = need "sta" st.s_sta;
    repair = st.s_repair;
    lint_report = st.s_lint;
    stats = Netlist.Stats.compute st.s_design;
    drc = need "drc" st.s_drc }

(* ---- stage cache (lib/cache) ----

   A stage's cache key chains three things: a fingerprint of the design
   entering the stage, a fingerprint of every option a stage can read, and
   the previous stage's key. The chain is what carries products that live
   outside the netlist (the placement, the route, ...) into downstream
   keys: stage N's key depends on stage N-1's key, which transitively pins
   every input stage N can see. A hit restores the serialized post-stage
   state snapshot -- taken in a single Marshal, so aliasing between the
   design and e.g. the placement's back-reference survives the round trip
   -- and replays the stage's exact metrics delta, keeping cached and
   uncached runs byte-identical in tables and kernel counters (DESIGN.md
   §6.2); only the [cache.*] counters themselves may differ. *)

type snapshot = {
  c_design : Design.t;
  c_tp_count : int;
  c_tpi_report : Tpi.Select.report option;
  c_placement : Layout.Place.t option;
  c_chains : Scan.Chains.t option;
  c_reorder : Scan.Reorder.result option;
  c_atpg : Atpg.Patgen.outcome option;
  c_tdv_bits : int;
  c_tat_cycles : int;
  c_cts : Layout.Cts.report option;
  c_drc : Layout.Drc.report option;
  c_filler : Layout.Filler.report option;
  c_route : Layout.Route.t option;
  c_rc : Layout.Extract.net_rc array option;
  c_sta : Sta.Analysis.t option;
  c_repair : Repair.report option;
}

let snapshot st =
  { c_design = st.s_design;
    c_tp_count = st.s_tp_count;
    c_tpi_report = st.s_tpi_report;
    c_placement = st.s_placement;
    c_chains = st.s_chains;
    c_reorder = st.s_reorder;
    c_atpg = st.s_atpg;
    c_tdv_bits = st.s_tdv_bits;
    c_tat_cycles = st.s_tat_cycles;
    c_cts = st.s_cts;
    c_drc = st.s_drc;
    c_filler = st.s_filler;
    c_route = st.s_route;
    c_rc = st.s_rc;
    c_sta = st.s_sta;
    c_repair = st.s_repair }

let restore st c =
  st.s_design <- c.c_design;
  st.s_tp_count <- c.c_tp_count;
  st.s_tpi_report <- c.c_tpi_report;
  st.s_placement <- c.c_placement;
  st.s_chains <- c.c_chains;
  st.s_reorder <- c.c_reorder;
  st.s_atpg <- c.c_atpg;
  st.s_tdv_bits <- c.c_tdv_bits;
  st.s_tat_cycles <- c.c_tat_cycles;
  st.s_cts <- c.c_cts;
  st.s_drc <- c.c_drc;
  st.s_filler <- c.c_filler;
  st.s_route <- c.c_route;
  st.s_rc <- c.c_rc;
  st.s_sta <- c.c_sta;
  st.s_repair <- c.c_repair

(* bump whenever the snapshot layout or any stage semantics change: old
   on-disk entries then simply never match a key again *)
let cache_version = "tpi-stage-cache-v2"

(* every option a stage outcome can depend on; the pool (execution layout
   only, §6.1), the cache itself, the cancellation token (which only
   decides whether the next stage starts, never what it computes) and the
   lint flag (read-only over the design) are deliberately excluded.
   Marshal of this immutable tuple of scalars and plain variants is
   byte-stable. *)
let options_fingerprint o =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( o.tp_percent, o.chain_config, o.utilization, o.run_atpg, o.atpg_config,
            o.tpi_config, o.seed, o.repair, o.repair_config )
          []))

type cache_ctx = {
  ck_store : Cache.Store.t;
  ck_options_fp : string;
  mutable ck_prev : string;  (* previous stage's key: the chain *)
}

let cache_ctx options =
  match options.cache with
  | None -> None
  | Some store ->
    Some { ck_store = store; ck_options_fp = options_fingerprint options; ck_prev = "root" }

type cache_entry = {
  e_snapshot : snapshot;
  e_metrics : Obs.Metrics.local;  (* the stage body's exact metrics delta *)
}

let m_hits = Obs.Metrics.counter "cache.stage_hits"
let m_misses = Obs.Metrics.counter "cache.stage_misses"

let cached_stage ctx name body (st : state) =
  (* stage boundary: the one place a cancelled/expired job stops; a hit or
     a body already underway always runs to completion (Cancel contract) *)
  Option.iter Cancel.check st.s_options.cancel;
  match ctx with
  | None -> body st
  | Some ctx ->
    let key =
      Cache.Store.key
        [ cache_version; name; ctx.ck_options_fp; Design.fingerprint st.s_design;
          ctx.ck_prev ]
    in
    ctx.ck_prev <- key;
    let bytes, hit =
      Cache.Store.find_or_compute ctx.ck_store ~key (fun () ->
          let (), delta = Obs.Metrics.with_scoped (fun () -> body st) in
          Marshal.to_string { e_snapshot = snapshot st; e_metrics = delta } [])
    in
    if hit then begin
      Obs.Metrics.incr m_hits;
      let entry : cache_entry = Marshal.from_string bytes 0 in
      restore st entry.e_snapshot;
      Obs.Metrics.absorb entry.e_metrics
    end
    else Obs.Metrics.incr m_misses

let stage_names_in_order =
  [ "tpi-scan"; "place"; "reorder-atpg"; "eco-cts-route"; "extract"; "sta"; "repair" ]

(* read-only gate ahead of the first stage: a design that would mis-build
   (combinational loops, multi-driven nets, mis-clocked test points, ...)
   is rejected before any stage spends time on it *)
let preflight ~options d =
  if options.lint then Lint.Engine.gate (Lint.Engine.run d)

let run ?(options = default_options) (d : Design.t) =
  preflight ~options d;
  let st = init ~options d in
  let ctx = cache_ctx options in
  List.iter2
    (fun name stage -> cached_stage ctx name stage st)
    stage_names_in_order
    [ stage_tpi_scan; stage_place; stage_reorder_atpg; stage_eco_route; stage_extract;
      stage_sta; stage_repair ];
  finish st
