(** The paper's experimental matrix (§4.1): for each circuit, six layouts —
    no test points, then 1% to 5% — each generated from scratch through the
    full flow, with the per-circuit settings of the paper (chain limits,
    row utilization targets).

    Every layout runs under {!Guard}, so each one passes the post-stage
    invariant checks or reports a typed error. {!sweep} returns the
    guard's reports; {!row_exn} turns one into a plain
    {!row} for the table renderers, raising on a failed level. *)

type spec = {
  circuit : string;               (** "s38417" | "pcore_a" | "pcore_b" *)
  scale : float;
  utilization : float;
  chain_config : Scan.Chains.config;
}

val spec_for : ?scale:float -> string -> spec
(** Paper settings: 100-FF chains and 97% utilization for s38417 and
    pcore_a; 32 chains and 50% utilization for pcore_b. Default scales come
    from {!Circuits.Bench.default_scales}. Raises [Invalid_argument] on an
    unknown circuit and on a [scale] that is not positive and finite. *)

val check_levels : int list -> (int list, string) result
(** The levels unchanged, or an error: for an empty list, a sweep that
    would run nothing, and otherwise naming the first level outside the
    0-100 % test-point range. *)

type row = {
  spec : spec;
  tp_pct : int;
  result : Pipeline.result;
}

(** {1 Guarded experiments}

    A stage failure in one layout becomes a row carrying the typed error
    (a DEGRADED line of {!Report.render}) instead of an exception. *)

type guarded_row = {
  g_spec : spec;
  g_tp_pct : int;
  g_report : Guard.report;
}

val sweep :
  ?jobs:int ->
  ?cache:Cache.Store.t ->
  ?policy:Guard.policy ->
  ?retries:int ->
  ?tamper:(attempt:int -> Guard.stage -> Pipeline.state -> unit) ->
  ?cancel:Cancel.t ->
  ?on_stage:(tp_pct:int -> Guard.stage -> Guard.stage_status -> unit) ->
  ?lint:bool ->
  ?repair:bool ->
  ?with_atpg:bool ->
  ?tp_levels:int list ->
  spec ->
  guarded_row list
(** The experiment's one level loop: each of [tp_levels] (default
    [0;1;2;3;4;5]) through {!Guard.run} ([retries], [tamper], [cancel]
    and [on_stage], told the level as well, go straight to it), rows in
    level order. Never raises on a stage failure. Under [policy]
    {!Guard.Fail_fast} (the default) the sweep stops after the first
    failed level, which is the last row; under {!Guard.Recover} and
    {!Guard.Degrade} every level is attempted and a failed one is a
    degraded row. Tampered layouts bypass the cache; a cancelled level
    is a row with a typed ["cancelled"] error.

    [lint] (default false) turns on the {!Pipeline.preflight} gate, so
    error-severity {!Lint} findings fail a level with ["lint-failed"]
    before its first stage. [repair] (default false) appends the step-7
    {!Repair} stage: [result.sta] is then the repaired timing and
    [result.repair] the report. [with_atpg] (default true) runs ATPG.

    The design is generated once per sweep, before any level starts —
    with [cache], looked up once and generated and stored on a miss —
    and every level builds on its own unmarshalled copy; a generation
    failure fails every level with the same ["design-generation"]
    error. Each layout is one [cache] entry ({!Pipeline.cache_open}), so
    a repeated sweep is served from cache, byte-identical to a cold,
    cache-less run.

    [jobs] (default 1; [Invalid_argument] below 1) is the number of
    layouts built at once, on [min jobs (List.length tp_levels)]
    domains, the calling one included. Rows, the {!Obs.Metrics}
    registry ([cache.*] counters included) and the span ids are those
    of a [jobs = 1] sweep: each level's metrics and spans are absorbed
    in level order after the workers join, and under {!Guard.Fail_fast}
    no level starts after a failed one, while one already started past
    it is dropped with its metrics. [on_stage] runs on the domain that
    builds the level, so the events of different levels interleave. *)

val row_exn : guarded_row -> row
(** The level as a plain row; raises {!Guard.Stage_failure} with the
    level's error when its flow did not complete. Use it wherever a failed
    level must stop the run rather than silently vanish — the paper
    tables, tests, examples. *)

val completed_rows : guarded_row list -> row list
(** The levels whose flow completed, as plain rows; failed levels are
    dropped (report them with {!degraded_rows}). *)

val degraded_rows : guarded_row list -> guarded_row list

val blocked_critical_nets : spec -> tp_pct:int -> row
(** The §5 ablation: run a baseline layout, time it on one
    {!Sta.Tgraph}, collect its near-critical nets
    ({!Lint.Tpitiming.critical_nets}, the set the lint
    [tpi.critical-path] rule checks), then insert test points with those
    nets excluded. Both layouts run under {!Guard}; raises
    {!Guard.Stage_failure} if either fails. *)
