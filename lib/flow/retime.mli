(** Incremental ECO re-timing context (DESIGN.md §6.6).

    Binds a placed, routed, extracted design to a compiled {!Sta.Tgraph}
    and keeps all four views consistent under netlist edits. Each edit
    re-places only new cells, re-routes and re-extracts only the nets
    whose terminals changed, and worklist-retimes only the dirtied cone —
    yet leaves the context byte-identical to re-running
    [Route.run → Extract.run → Sta.Tgraph.run] from scratch on the same
    mutated design (routing and extraction are pure per-net maps and
    {!Sta.Tgraph.retime} is exact). *)

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
    the leaf clock net re-routed and re-timed. *)

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
(** Swap [inst] for [cell] (same pin interface, identity pin map). The
    revert primitive behind speculative sizing: remember the old cell,
    trial an {!upsize}/{!downsize}, and [resize] back if timing regressed.
    Raises [Invalid_argument] if the pin counts differ. *)

val swap_pins : t -> inst:int -> pin_a:int -> pin_b:int -> Sta.Tgraph.retime_stats
(** Exchange the nets on two input pins of [inst] — the commutative-pin
    ECO: with per-pin arc asymmetry ({!Stdcell.Library.default}, pin A
    fastest), moving the latest-arriving signal onto the fastest pin
    shortens the worst arc. Self-inverse, so a regressing swap is
    reverted by swapping back. Raises [Invalid_argument] unless both
    pins are connected inputs. *)

val remove_buffer : t -> inst:int -> Sta.Tgraph.retime_stats
(** Exact structural undo of the most recent {!insert_buffer}: [inst]
    must still be the newest instance and its output net the newest net.
    Unsplits the net (sink order preserved), removes the buffer cell and
    net, unplaces it, and re-times the restored cone — leaving the
    context byte-identical to one in which the buffer was never
    inserted. Raises [Invalid_argument] if anything was appended since. *)

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
