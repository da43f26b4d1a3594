(** Post-route timing-repair ECO stage (DESIGN.md §6.7).

    Walks the near-critical net set of the compiled timing graph and
    trials parasitic-aware ECOs through {!Retime} — buffer insertion on
    loaded critical nets, driver upsizing, commutative-pin swapping, and
    off-critical downsizing for area recovery. Every ECO is speculative:
    re-timed individually, accepted only if the (WNS, TNS) objective
    improves lexicographically (area moves: only if it does not degrade),
    and rolled back otherwise ({!Retime.rollback}), which leaves the
    context exactly as a fresh route, extraction and analysis of the
    reverted design would.

    Each trial is evaluated by a worklist cone retime
    ({!Sta.Tgraph.retime}), which leaves the graph exactly as a
    whole-design re-analysis of the edited layout would (§6.6), so every
    accept/revert decision is taken on exact timing. This is pinned by
    the repair test suite against a fresh route/extract/analysis of the
    repaired placement. *)

type eco_kind = Insert_buffer | Upsize | Downsize | Swap_pins

type eco = {
  kind : eco_kind;
  target : string;       (** net or instance name *)
  accepted : bool;
  wns_gain_ps : float;   (** objective movement of this trial *)
}

type report = {
  passes : int;
  tried : int;
  accepted : int;
  buffers_inserted : int;
  upsized : int;
  downsized : int;
  swapped : int;
  wns_before : float;
  tns_before : float;
  wns_after : float;    (** never worse than [wns_before] *)
  tns_after : float;
  t_cp_before : float;
  t_cp_after : float;
  cell_area_before : float;
  cell_area_after : float;
  pre_sta : Sta.Analysis.t;
  (** analysis before any repair — byte-identical to the unrepaired
      flow's STA, which is what lets one repaired sweep report both the
      repaired and unrepaired Table 3 columns *)
  sta : Sta.Analysis.t;             (** analysis of the repaired state *)
  route : Layout.Route.t;
  rc : Layout.Extract.net_rc array;
  edits : eco list;                 (** every trial, in application order *)
}

val kind_name : eco_kind -> string

val run :
  ?route:Layout.Route.t ->
  ?rc:Layout.Extract.net_rc array ->
  Layout.Place.t ->
  report
(** Repair the placed design in place. [route]/[rc] reuse an existing
    routing/extraction of exactly this placement (the pipeline passes its
    stage products); both are recomputed when absent. The criticality
    window, trial budget, pass count and slack guard are fixed tool
    settings (DESIGN.md §6.7). *)
