(** The complete tool flow of Figure 2, as seven stages:

    {ol
    {- test point insertion and scan insertion on the gate-level netlist;}
    {- floorplanning and placement;}
    {- layout-driven scan-chain reordering, then ATPG on the updated
       netlist;}
    {- ECO of the reordering's buffers, clock-tree insertion, filler
       insertion and routing;}
    {- RC extraction;}
    {- static timing analysis;}
    {- (optionally) post-route timing repair ({!Repair}), off by default
       — the paper's layouts are deliberately unoptimised (§5).}}

    This module holds the options, the stage bodies, the products they
    fill in and the layout cache. It does not sequence them: every layout
    is built from scratch by {!Guard.run}, which runs the stages in order
    with post-stage invariant checks, typed errors, retries and
    cancellation ({!Guard.result_exn} turns its report into a
    {!result}). *)

type options = {
  tp_percent : float;              (** test points as % of flip-flops (0-5) *)
  chain_config : Scan.Chains.config;
  utilization : float;             (** target row utilization *)
  run_atpg : bool;                 (** Table 1 needs it; Tables 2-3 do not *)
  blocked_nets : int list;
      (** nets barred from test point insertion: the critical-path
          exclusion of the §5 ablation; [] by default *)
  seed : int;
  cache : Cache.Store.t option;
      (** content-addressed layout cache: a layout whose entry is present
          is restored whole and every stage replays its metrics delta
          instead of recomputing ({!cache_open}). Cached and uncached
          runs are byte-identical in results and kernel metrics
          (DESIGN.md §6.2); the cache never affects {e what} is
          computed, only how fast *)
  lint : bool;
      (** pre-flight the input design through {!Lint.Engine} before the
          first stage; error-severity findings abort with
          {!Lint.Engine.Lint_failed} (error class ["lint-failed"] under
          {!Guard}). Read-only over the design, so — like the cache —
          excluded from cache keys *)
  repair : bool;
      (** run the step-7 {!Repair} stage: WNS/TNS-driven ECO repair of the
          routed design, updating [route]/[rc]/[sta] to the repaired
          state. Part of the cache key. Default [false] *)
}

val default_options : options

type products = {
  design : Netlist.Design.t;
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
(** Everything the stages have produced so far: the design plus one slot
    per stage product, [None] until its stage has run. Immutable — a
    stage replaces the whole record — and, after the last stage, exactly
    what a layout's cache entry stores. *)

type result = {
  design : Netlist.Design.t;
  options : options;
  tp_count : int;
  tpi_report : Tpi.Select.report option;  (** None when no points requested *)
  chains : Scan.Chains.t;
  reorder : Scan.Reorder.result;
  atpg : Atpg.Patgen.outcome option;
  tdv_bits : int;   (** equation (1); 0 without ATPG *)
  tat_cycles : int; (** equation (2) *)
  placement : Layout.Place.t;
  cts : Layout.Cts.report;
  filler : Layout.Filler.report;
  route : Layout.Route.t;
  rc : Layout.Extract.net_rc array;
  sta : Sta.Analysis.t;
      (** post-repair when the repair stage ran; its pre-repair STA is
          then in [repair.pre_sta] *)
  repair : Repair.report option;  (** [Some] iff [options.repair] *)
  stats : Netlist.Stats.t;  (** post-flow netlist statistics *)
  drc : Layout.Drc.report;  (** max-capacitance fixes applied before routing *)
}

val preflight : options:options -> Netlist.Design.t -> unit
(** Lint gate ahead of the first stage: when [options.lint] is set, run
    {!Lint.Engine.run} over the input design and raise
    {!Lint.Engine.Lint_failed} on any error-severity finding. Read-only;
    no-op when the flag is off. Called by {!Guard}, which maps the escape
    to the ["lint-failed"] error class. *)

(** {1 Stages}

    A [state] holds the options and the current {!products}; stages must
    run in Figure-2 order and raise [Invalid_argument] when a prerequisite
    is missing. *)

type state = {
  s_options : options;
  mutable s_products : products;
}

val init : ?options:options -> Netlist.Design.t -> state

val stage_tpi_scan : state -> unit
val stage_place : state -> unit
val stage_reorder_atpg : state -> unit
val stage_eco_route : state -> unit
val stage_extract : state -> unit
val stage_sta : state -> unit

val stage_repair : state -> unit
(** No-op unless [options.repair]; otherwise runs {!Repair.run} on the
    routed design and moves the route/rc/sta slots to the repaired
    state. *)

val finish : state -> result
(** Collects a complete [result]; raises [Invalid_argument] if any stage
    has not run. *)

(** {1 Layout cache}

    Content-addressed memoization of whole layouts (see DESIGN.md §6.2).
    A layout's key digests the cache version, a fingerprint of the
    result-relevant options (cache and lint excluded) and
    [Design.fingerprint] of the input design, so the products living
    outside the netlist (placement, route, ...) are pinned too. An entry
    is the finished {!products} plus each stage's metrics delta, stored
    only after the last stage's checks passed. {!Guard} bypasses the
    cache for fault-injection runs (a [tamper] hook). *)

type cache =
  | Uncached
  | Served
  | Filling of {
      store : Cache.Store.t;
      key : string;
      mutable deltas : Obs.Metrics.local list;  (** computed stages', newest first *)
    }
(** One attempt's cache state. *)

val cache_open : state -> cache
(** Look the layout up once, before its first stage runs. Without
    [options.cache] the layout is uncached. On a hit the stored products
    are assigned to [st], the stored metrics deltas of all seven stages
    are replayed ({!Obs.Metrics.absorb}), and every stage is then served
    ({!run_stage}); on a miss every stage is computed and {!cache_close}
    stores the entry. *)

val run_stage : cache -> (state -> unit) -> state -> unit
(** [run_stage c run st] runs one stage, in Figure-2 order: [run] is its
    body followed by its post-stage checks. Uncached, it just runs
    [run st]. Served, [run] does not run (the entry's presence stands for
    checks that passed) and [cache.stage_hits] is counted. Filling, [run]
    runs under {!Obs.Metrics.with_scoped}, its delta is kept for the
    entry, and [cache.stage_misses] is counted. *)

val cache_close : cache -> state -> unit
(** Store the layout's entry when filling; call once, after the last
    stage's checks passed. A no-op when uncached or served. *)
