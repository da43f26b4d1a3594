(** Perf-regression gate over [BENCH_perf.json] documents.

    One walk over flat [name -> (direction, value)] metrics judges a
    freshly measured document two ways:

    - {b against a baseline}: a metric that moved past tolerance in its
      bad direction fails. The metrics are each workload's end-to-end
      results ([workloads/<w>/<metric>], direction from
      [BENCHMARK.json]'s [better] field), the [parallel] and
      [incremental] speedups, serve throughput and serve [p95_ms]. A
      baseline workload metric the current document lacks fails — a
      vanished workload must not pass; any other absent metric is
      skipped and listed.
    - {b against absolute floors}, whatever the baseline says: every
      workload run has [failed = 0] and [correct]; every traced run
      attributes at least 0.95 of its time to spans; [tables23-cold]
      takes at least 4x [tables23-warm]'s [wall_s]; the single-TP
      incremental retime is at least 3x faster than a whole-design
      re-analysis.

    The per-layer ledger is gated only by floors: its span times are
    raw wall clock, not perfbench's reference-speed clock, so a relative
    bound on them would judge the host rather than the code.

    The comparison is pure — [bench --perf --check] measures and this
    module judges — which makes the pass/fail boundary unit testable
    without running a benchmark. *)

type direction = Lower_better | Higher_better

type violation = {
  v_metric : string;  (** e.g. ["workloads/table1-atpg/wall_s"] *)
  v_dir : direction;
  v_baseline : float option;  (** [None]: an absolute floor *)
  v_current : float option;  (** [None]: absent from the current document *)
  v_limit : float;  (** the bound current had to stay within; on it passes *)
}

type verdict = {
  checked : int;  (** baseline comparisons plus floors *)
  skipped : string list;
      (** baseline metrics outside [workloads/] absent from current,
          plus every [parallel/*] speedup when the two documents record
          different [parallel.host_cores] — a 4-core baseline against a
          1-core runner would fail on hardware, not on a code
          regression *)
  violations : violation list;
}

val directions : Json.t -> (string * direction) list
(** The [end_to_end] metrics of a [BENCHMARK.json] document, each with
    the direction its [better] field gives it. *)

val gated_metrics : directions:(string * direction) list -> Json.t -> (string * direction * float) list
(** The metrics a perf document exposes to the baseline comparison. *)

val compare_docs :
  directions:(string * direction) list -> baseline:Json.t -> current:Json.t ->
  tolerance_pct:float -> verdict
(** The tolerance bound of a baseline value is [base * (1 + t/100)] when
    lower is better and [base / (1 + t/100)] when higher is better. *)

exception Invalid_baseline of string
(** A perf snapshot file that exists but does not parse as JSON; the
    payload names the file and the parse error. *)

val check :
  directions:(string * direction) list -> baseline_path:string -> current_path:string ->
  tolerance_pct:float -> verdict
(** Read both files and compare. Raises [Sys_error] on an unreadable
    file and {!Invalid_baseline} on invalid JSON. *)

val pp_verdict : Format.formatter -> verdict -> unit
