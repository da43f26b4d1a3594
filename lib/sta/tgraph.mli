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
(** Full from-seed level-ordered propagation. *)

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

val sync_topology : t -> nets:int list -> insts:int list -> unit
(** Absorb netlist surgery: appended instances and nets are mirrored
    automatically; [nets]/[insts] must list every {e pre-existing} net
    whose driver/sink set changed and every pre-existing instance whose
    cell was swapped. Re-levelizes the affected cone (levels only rise).
    Also absorbs a shrink — a speculative-edit rollback that removed the
    newest instances/nets ({!Netlist.Design.remove_last_instance}) — by
    retiring their mirror slots and rebuilding the evaluation order.
    Raises {!Analysis.Combinational_cycle} if the edit closed a loop. *)

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

    Required times are invalidated ({!critical_nets} recomputes them on
    demand). Bookkeeping lands in [sta.incremental.*] counters only; the
    whole-graph counters ([sta.arcs_evaluated], ...) are never touched. *)

(** {1 Queries} *)

val num_nets : t -> int
val level : t -> int -> int
val arrival : t -> int -> float

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
    endpoint. [tns] sums the negative slacks in ascending order. The
    repair objective evaluates it after every trial ECO. *)

val critical_nets : t -> margin_ps:float -> int list
(** Nets whose slack is within [margin_ps] of the worst net slack —
    the critical-net set of the lint [tpi-timing] pack, over extracted
    parasitics after layout and over zero parasitics before it
    (computes {!compute_required} on demand). Ascending net ids. *)
