(** Lint rules: pure functions from a shared analysis context to
    diagnostics.

    Rules never mutate the design (DESIGN.md §6.5: [Lint.Engine] asserts
    this with a fingerprint check in tests) and never raise — a rule that
    does is caught by the engine and reported as an [engine.rule-crash]
    diagnostic. Expensive shared analyses (capture-mode model, COP
    probabilities, fanout-free regions, the pre-layout timing graph) are
    computed lazily and at most once per engine run, so a pack's rules
    share one traversal instead of re-deriving the world. *)

type ctx = {
  design : Netlist.Design.t;
  cmodel : Netlist.Cmodel.t option lazy_t;
      (** capture-mode combinational view; [None] if the design cannot
          be modelled (e.g. a combinational loop) *)
  cop : Testability.Cop.t option lazy_t;
  regions : Testability.Regions.t option lazy_t;
  timing : (Sta.Tgraph.t * int list) lazy_t;
      (** the design timed by {!Sta.Tgraph} over zero parasitics
          ({!Layout.Extract.empty_rc}), propagated with required times,
          and the instances stuck on combinational loops
          ({!Sta.Tgraph.compile_partial}): loops are reported, never
          raised *)
  facts : Structfacts.t lazy_t;
      (** the one-pass structural fact sweep shared by the whole
          structural pack *)
}

val make_ctx : Netlist.Design.t -> ctx

type t = {
  id : string;           (** stable, kebab-case, pack-prefixed *)
  pack : string;
      (** ["structural"], ["clock-scan"], ["tpi-timing"], ["tpi-repair"] *)
  title : string;        (** one-line description (SARIF shortDescription) *)
  severity : Diag.severity;  (** default severity of this rule's findings *)
  check : ctx -> Diag.t list;
}

val diag : t -> loc:Diag.location -> ?hint:string -> string -> Diag.t
(** A diagnostic carrying the rule's id and default severity. *)

val diag_at : t -> severity:Diag.severity -> loc:Diag.location -> ?hint:string -> string -> Diag.t
(** Same, overriding the severity (e.g. a warn-rule finding so extreme
    it is promoted to error). *)
