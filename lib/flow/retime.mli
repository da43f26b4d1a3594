(** Incremental ECO re-timing context (DESIGN.md §6.6).

    Binds a placed, routed, extracted design to a compiled {!Sta.Tgraph}
    and keeps all four views consistent under netlist edits. Each edit
    re-places only new cells, re-routes and re-extracts only the nets
    whose terminals changed, and worklist-retimes only the dirtied cone —
    yet leaves the context byte-identical to re-running
    [Route.run → Extract.run → Sta.Tgraph.run] from scratch on the same
    mutated design (routing and extraction are pure per-net maps and
    {!Sta.Tgraph.retime} is exact).

    Edits between {!open_trial} and {!commit}/{!rollback} are
    speculative: {!rollback} takes the context back to the state of the
    open without re-timing the cone the trial touched. *)

type t

val create : Layout.Place.t -> Layout.Route.t -> Layout.Extract.net_rc array -> t
(** Compile and propagate the timing graph and snapshot per-net
    routes/parasitics. The placement (and the design under it) are
    borrowed and mutated by subsequent edits; the route and rc arrays are
    copied. Every edit then ends in a worklist cone retime
    ({!Sta.Tgraph.retime}). *)

val insert_tp :
  t -> net:int -> Netlist.Design.instance * Sta.Tgraph.retime_stats
(** Splice an observe/control TSFF into [net] (§3.1 step 3) as a
    post-layout ECO: clocked from the nearest CTS leaf buffer of its
    domain (root clock net when no tree exists), legalized near the
    net's driver, with only the split net, the test-control nets and
    the leaf clock net re-routed and re-timed. Raises [Invalid_argument]
    inside a trial: a test point adds ports, which no rollback undoes. *)

val insert_buffer :
  t -> net:int -> Netlist.Design.instance * Sta.Tgraph.retime_stats
(** Split [net] behind a minimum-drive buffer placed near its driver. *)

val upsize : t -> inst:int -> Sta.Tgraph.retime_stats option
(** Swap [inst] for the next drive strength up ({!Stdcell.Library.upsize});
    [None] when it is already at maximum drive. Every incident net is
    re-routed (the cell centre, hence every pin position, moves). *)

val downsize : t -> inst:int -> Sta.Tgraph.retime_stats option
(** Swap [inst] for the next drive strength down — the area-recovery move
    and the exact inverse of {!upsize}; [None] at minimum drive. *)

val resize : t -> inst:int -> cell:Stdcell.Cell.t -> Sta.Tgraph.retime_stats
(** Swap [inst] for [cell] (same pin interface, identity pin map); the
    edit behind {!upsize} and {!downsize}. Raises [Invalid_argument] if
    the pin counts differ. *)

val swap_pins : t -> inst:int -> pin_a:int -> pin_b:int -> Sta.Tgraph.retime_stats
(** Exchange the nets on two input pins of [inst] — the commutative-pin
    ECO: with per-pin arc asymmetry ({!Stdcell.Library.default}, pin A
    fastest), moving the latest-arriving signal onto the fastest pin
    shortens the worst arc. Raises [Invalid_argument] unless both pins
    are connected inputs. *)

(** {1 Speculative trials} (DESIGN.md §6.7) *)

val open_trial : t -> unit
(** Make the following {!insert_buffer}, {!resize}/{!upsize}/{!downsize}
    and {!swap_pins} edits speculative: each logs its structural inverse
    and the route and parasitics of the nets it re-routes, and the graph
    journals the timing values it rewrites ({!Sta.Tgraph.open_journal}).
    Raises [Invalid_argument] if a trial is already open. *)

val commit : t -> unit
(** Keep the trial's edits. *)

val rollback : t -> unit
(** Undo the trial's edits, newest first, with each edit's own inverse
    (a buffer is unsplit and removed, a cell resized back, two pins
    swapped back): design, placement and graph topology take the writes
    those inverses always made. Then restore the journaled timing values
    and, for every net whose connectivity came back as it was, its saved
    route and parasitics, so nothing is re-timed. Undoing a resize or a
    swap re-attaches the pin at the head of its nets' sink lists; those
    nets are re-routed and re-extracted, and re-timed from the restored
    state where that moves a load or an Elmore delay. The context is then
    byte-identical to re-running route, extraction and timing on the
    reverted design. *)

val analysis : t -> Sta.Analysis.t
(** Full report from the current graph state — endpoint slacks, eq. 3
    breakdown, critical paths — without any propagation. *)

val route : t -> Layout.Route.t
(** Congestion/wirelength statistics rebuilt over the patched routes. *)

val rc : t -> Layout.Extract.net_rc array
(** Live per-net parasitics (do not mutate). *)

val design : t -> Netlist.Design.t
val placement : t -> Layout.Place.t
val tgraph : t -> Sta.Tgraph.t
