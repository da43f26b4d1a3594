(** The TPI/timing rule pack — the paper's findings as lint rules: test
    point insertion silently degrades T_cp and wastes area unless the
    sites are screened first. Rule ids (stable, DESIGN.md §6.5):

    - [tpi.critical-path] — a test point sits on a critical or
      near-critical path (§5: "this approach requires timing analysis
      for identifying all paths with slack below a certain threshold").
      Reads the pre-layout {!Sta.Tgraph} over zero parasitics
      ({!Rule.ctx}): a TP whose tapped net has negative slack is an
      error, one in the near-critical set ({!critical_nets}) a warning.
    - [tpi.density] (warn) — test point count outside the paper's 1–3 %
      envelope (§4: beyond ~3 % the area and timing cost outgrows the
      coverage gain), or several TPs piled into one fanout-free region
      (one observation point at the FFR head already covers it).
    - [tpi.low-observability] (warn) — a TP site that cannot pay for its
      area: the injected value is COP-unobservable downstream, or the
      tapped net was already directly observed. *)

val pack_name : string

val critical_nets : Sta.Tgraph.t -> Sta.Analysis.t -> int list
(** The near-critical net set of a propagated graph and its report: nets
    whose slack is within 5 % of the worst T_cp of the worst net slack
    ({!Sta.Tgraph.critical_nets}). *)

val density_envelope_pct : float
(** Upper edge of the paper's TP density envelope (3.0). *)

val min_observability : float
(** COP observability below which an injected value is considered lost
    (0.02). *)

val rules : Rule.t list
