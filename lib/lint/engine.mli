(** Lint driver: run rule packs over one design in a single
    shared-traversal pass, apply waivers, and summarize.

    All rules drawing on the same derived views ({!Structfacts}, the
    pre-layout {!Sta.Tgraph}, {!Netlist.Cmodel}, {!Testability.Cop}) share one lazily
    forced instance through {!Rule.ctx}, so the cost of a run is one
    sweep per view plus the per-rule deltas. Every rule body runs under
    an {!Obs.Trace} span named [lint.<rule-id>] and feeds the
    [lint.rules_run] / [lint.diags] counters in {!Obs.Metrics}.

    A rule that raises does not abort the run: the escape is converted
    into an error-severity diagnostic for that rule anchored at
    [Stage "lint"], so a crashing check reads as a finding, never as a
    silent pass. *)

type stat = {
  rule_id : string;
  pack : string;
  count : int;  (** diagnostics emitted (pre-waiver) *)
  ms : float;   (** wall-clock spent in the rule body *)
}

type report = {
  diags : (Diag.t * string) list;
      (** active diagnostics with occurrence-qualified fingerprints,
          sorted by {!Diag.compare} *)
  waived : (Diag.t * string) list;  (** suppressed, emission order *)
  stale : Waiver.entry list;        (** waivers that matched nothing *)
  stats : stat list;                (** one per rule run, rule order *)
  total_ms : float;
  errors : int;
  warnings : int;
  infos : int;  (** counts over active diagnostics only *)
}

val all_rules : Rule.t list
(** Every registered rule: structural, clock/scan, TPI/timing and
    TPI/repair packs in that order. *)

val packs : (string * Rule.t list) list

val run :
  ?rules:Rule.t list ->
  ?waivers:Waiver.t ->
  Netlist.Design.t ->
  report
(** [rules] defaults to {!all_rules}; [waivers] to {!Waiver.empty}. The
    design is never mutated (checked by a fingerprint property test). *)

val worst : report -> Diag.severity option
(** Highest active severity, [None] for a clean report. *)

val baseline : ?reason:string -> report -> Waiver.t
(** Waiver file content covering every diagnostic of this run, active
    and already-waived alike ([--write-waivers]). *)

exception Lint_failed of string
(** Raised by {!gate}; the payload is a one-line summary naming the
    first few offending rule ids. Mapped to the ["lint-failed"] error
    class by {!Flow.Guard}. *)

val gate : report -> unit
(** Raise {!Lint_failed} when the report holds error-severity
    diagnostics; no-op otherwise. *)
