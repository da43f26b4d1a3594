(** Flat structure-of-arrays timing graph (the ROADMAP's "flat-array
    netlist representation"): arrivals, slews, provenance, loads, sink
    Elmores, levels and application-mode timing arcs in flat int/float
    arrays, compiled once from the placed-and-extracted design and kept
    alive across netlist edits.

    This is the design's one timing engine: the STA stage, ECO
    re-timing, timing repair and lint all read their reports off it.
    {!propagate} re-times the whole graph from seeds in level order,
    {!analysis} builds the report ({!Analysis.build_result}), {!retime}
    re-evaluates only a dirty cone, landing on exactly the state
    {!propagate} would, and {!compute_required}/{!slack} give required
    times and setup slacks.

    The graph mirrors a {e mutable} design. After editing the netlist,
    callers must (in order) {!sync_topology} with every net/instance they
    touched, then {!update_rc} each re-extracted net, then re-time. *)

type t

val compile : Netlist.Design.t -> Layout.Extract.net_rc array -> t
(** Build the flat mirror and levelize. Raises
    {!Analysis.Combinational_cycle}, naming the first instance (in id
    order) left pending, on a combinational loop. Does not propagate. *)

val compile_partial :
  Netlist.Design.t -> Layout.Extract.net_rc array -> t * int list
(** {!compile}, total on combinational loops: the considered instances
    left pending (loop members and the cone they feed) are dropped from
    evaluation, so their output nets keep [-inf] arrivals, and returned
    in id order ([[]] for a loop-free design). The rest of the design
    times exactly as under {!compile}. *)

val propagate : t -> unit
(** Full from-seed level-ordered propagation. Raises [Invalid_argument]
    while a journal is open. *)

val analysis : t -> Analysis.t
(** Endpoint/critical-path report from the current propagated state, via
    {!Analysis.build_result}. *)

val run : Netlist.Design.t -> Layout.Extract.net_rc array -> Analysis.t
(** One-shot sequential analysis: {!compile}, {!propagate}, {!analysis}.
    Raises {!Analysis.Combinational_cycle} on a combinational loop and
    {!Analysis.Backtrack_diverged} if path reconstruction fails. *)

(** {1 Keeping the mirror in sync} *)

val update_rc : t -> int -> Layout.Extract.net_rc -> unit
(** Refresh one net's load and sink Elmores after re-extraction. *)

val rc_differs : t -> int -> Layout.Extract.net_rc -> bool
(** Whether {!update_rc} with this parasitics record would change a value
    timing reads: the net's load or some sink's Elmore delay, bit for bit
    (sinks matched by instance and pin, in any order). *)

val sync_topology : t -> nets:int list -> insts:int list -> unit
(** Absorb netlist surgery: appended instances and nets are mirrored
    automatically; [nets]/[insts] must list every {e pre-existing} net
    whose driver/sink set changed and every pre-existing instance whose
    cell was swapped. Re-levelizes the affected cone (levels only rise).
    Also absorbs a shrink — a speculative-edit rollback that removed the
    newest instances/nets ({!Netlist.Design.remove_last_instance}) — by
    retiring their mirror slots and rebuilding the evaluation order.
    Keeps the endpoint-candidate list {!wns_tns} walks: appended
    sequential instances join it, dropped slots leave it.
    Raises {!Analysis.Combinational_cycle} if the edit closed a loop. *)

(** {1 Speculative edits}

    A rejected trial edit is undone in two halves: the caller reverts
    the netlist and re-{!sync_topology}s it (levels, arcs, drivers,
    endpoint list), and {!rollback} restores the timing values the
    trial changed, so nothing is re-timed (DESIGN.md §6.6). *)

val open_journal : t -> unit
(** Start recording. Until {!commit} or {!rollback}, {!update_rc} and
    {!retime} journal the old (arrival, slew, provenance, load, sink
    Elmores) of every net they rewrite and the old slow flag of every
    instance they evaluate, once per slot; slots appended after the
    open are not journaled. Raises [Invalid_argument] if one is open. *)

val commit : t -> unit
(** Keep the trial: forget the journal. *)

val rollback : t -> unit
(** Restore every journaled value (newest entry first) and the slow-node
    count of the open, set the [sta.slow_nodes] gauge and invalidate
    required times. Exact once the netlist has been reverted and
    re-synced: the restored values are the propagated state of the
    design as it was at the open, which routing, extraction and timing
    would recompute bit for bit (pure functions of that design). *)

(** {1 Cone re-timing} *)

type retime_stats = {
  insts_evaluated : int;   (** instances re-evaluated forward *)
  nets_changed : int;      (** nets whose (arrival, slew, provenance) moved *)
  nets_settled : int;      (** re-evaluated outputs that came out unchanged *)
}

val retime : t -> dirty_nets:int list -> dirty_insts:int list -> retime_stats
(** Worklist re-timing of the cone downstream of the dirty sets (the
    ROADMAP's "re-time only the affected cone").

    Contract (DESIGN.md §6.6): after a netlist/layout edit, the caller
    {!sync_topology}s every touched net and instance, then {!update_rc}s
    every re-extracted net, then calls [retime] with those same sets. The
    graph then holds {e exactly} the state a full {!propagate} would
    produce — bit for bit, including provenance and slow-node flags —
    because a cone re-evaluation resets each output net to its seed and
    replays the driver's arcs in declaration order, and stops at nets
    whose (arrival, slew, provenance) came out bitwise unchanged.

    The worklist is per-level intrusive lists in the graph, so a retime
    allocates only its result record. Required times are invalidated
    ({!critical_nets} recomputes them on demand). Bookkeeping lands in
    [sta.incremental.*] counters only; the whole-graph counters
    ([sta.arcs_evaluated], ...) are never touched. *)

(** {1 Queries} *)

val num_nets : t -> int
val level : t -> int -> int
val arrival : t -> int -> float
val slew : t -> int -> float
val from_inst : t -> int -> int
val from_pin : t -> int -> int
val slow : t -> int -> bool
val slow_count : t -> int

(** {1 Required times and slacks} *)

val compute_required : t -> unit
(** Full backward pass: required arrival per net (setup checks at
    sequential data pins, min-propagated through combinational consumers;
    clock-network nets stay [+inf]). *)

val net_slack : t -> int -> float option
(** [required - arrival] where both are finite. *)

type endpoint_slack = {
  ff : int;            (** capturing flip-flop instance id *)
  domain : int;
  slack_ps : float;    (** period - (arrival + setup - capture latency) *)
}

type slack_report = {
  endpoints : endpoint_slack list;  (** worst first *)
  wns : float;                      (** worst negative (or smallest) slack *)
  tns : float;                      (** total negative slack *)
  violations : int;
}

val slack : t -> slack_report
(** Endpoint setup slacks against each domain's declared period, from the
    current propagated state. *)

val wns_tns : t -> float * float
(** [(wns, tns)] of {!slack} (which takes them from here) without
    building the report: no list, no sort of records, no boxed float per
    endpoint. It walks the graph's list of sequential instances (in
    ascending id order, which fixes ties) instead of every instance.
    [tns] sums the negative slacks in ascending order. The repair
    objective evaluates it after every trial ECO. *)

val critical_nets : t -> margin_ps:float -> int list
(** Nets whose slack is within [margin_ps] of the worst net slack —
    the critical-net set of the lint [tpi-timing] pack, over extracted
    parasitics after layout and over zero parasitics before it
    (computes {!compute_required} on demand). Ascending net ids. *)
