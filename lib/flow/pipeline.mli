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
    fill in and the stage cache. It does not sequence them: every layout
    is built from scratch by {!Guard.run}, which runs the stages in order
    with post-stage invariant checks, typed errors, retries and
    cancellation ({!Guard.result_exn} turns its report into a
    {!result}). *)

type options = {
  tp_percent : float;              (** test points as % of flip-flops (0-5) *)
  chain_config : Scan.Chains.config;
  utilization : float;             (** target row utilization *)
  run_atpg : bool;                 (** Table 1 needs it; Tables 2-3 do not *)
  atpg_config : Atpg.Patgen.config;
  tpi_config : Tpi.Select.config;  (** e.g. blocked nets for the §5 ablation *)
  seed : int;
  pool : Par.Pool.t option;
      (** domain pool for the parallel kernels (ATPG fault simulation, STA
          propagation). [None] (the default) runs fully sequentially; any
          pool produces bit-identical results at any domain count *)
  cache : Cache.Store.t option;
      (** content-addressed stage cache consulted before each stage
          ({!cached_stage}): a hit restores the stage's products and
          replays its metrics delta instead of recomputing. Cached and
          uncached runs are byte-identical in results and kernel metrics
          (DESIGN.md §6.2); like the pool, the cache never affects {e
          what} is computed, only how fast *)
  lint : bool;
      (** pre-flight the input design through {!Lint.Engine} before the
          first stage; error-severity findings abort with
          {!Lint.Engine.Lint_failed} (error class ["lint-failed"] under
          {!Guard}). Read-only over the design, so — like the pool and the
          cache — excluded from stage-cache keys. When the sta stage runs
          (not on a cache hit) it also produces the post-layout
          [lint_report] *)
  repair : bool;
      (** run the step-7 {!Repair} stage: WNS/TNS-driven ECO repair of the
          routed design, updating [route]/[rc]/[sta] to the repaired
          state. Part of the stage-cache key. Default [false] *)
  repair_config : Repair.config;  (** budgets/margins for the repair stage *)
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
    stage replaces the whole record — and exactly what a stage-cache
    entry stores. *)

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
  lint_report : Lint.Engine.report option;
      (** post-layout run of the TPI/timing lint packs, fed the real slack
          report and near-critical net set straight off the sta stage's
          timing graph; [Some] under [lint = true] whenever the sta stage
          ran rather than being restored from the cache *)
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
  mutable s_lint : Lint.Engine.report option;
      (** [lint] only; outside the stage cache *)
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

(** {1 Stage cache}

    Content-addressed memoization of whole stages (see DESIGN.md §6.2).
    The chain's root key digests the cache version, a fingerprint of the
    result-relevant options (pool, cache and lint excluded) and
    [Design.fingerprint] of the input design; each stage's key is its
    name plus the previous key, so the products living outside the
    netlist (placement, route, ...) are pinned transitively. {!Guard}
    bypasses the cache for fault-injection runs (a [tamper] hook). *)

type cache_ctx
(** Per-run chaining state; create one per attempt. *)

val cache_ctx : state -> cache_ctx option
(** [None] when the options carry no cache; otherwise a chain rooted at
    the state's options and (freshly initialised) design. *)

val cached_stage : cache_ctx option -> string -> (state -> unit) -> state -> unit
(** [cached_stage ctx name run st] runs one stage: [run] is its body
    followed by its post-stage checks. Without [ctx] it just runs [run st].
    With one, a stage whose entry is present is a deferred hit: nothing
    is read or run, and the entry's presence stands for checks that
    passed, because an entry is stored only after [run] returned. A
    stage whose entry is absent first {!settle}s, then runs [run] under
    {!Obs.Metrics.with_scoped} and stores the products together with
    every stage's metrics delta so far. [name] must be the stage's flow
    name (["tpi-scan"], ["place"], ...). *)

val settle : cache_ctx option -> state -> unit
(** Bring [st] up to date with the deferred hits: load the newest
    deferred entry, assign its products and replay the metrics deltas of
    the stages it covers beyond [st]'s. An entry that does not read back
    is recomputed (its run included) from the newest one that does, or
    from the state the deferral began at. Call it after the last stage
    and before reading [st] on any early exit. *)
