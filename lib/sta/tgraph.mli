(** Flat structure-of-arrays timing graph (the ROADMAP's "flat-array
    netlist representation"): arrivals, slews, provenance, loads, sink
    Elmores, levels and application-mode timing arcs in flat int/float
    arrays, compiled once from the placed-and-extracted design and kept
    alive across netlist edits.

    This is the design's one arrival propagator: the STA stage, ECO
    re-timing and timing repair all read their reports off it.
    {!propagate} re-times the whole graph from seeds in level order,
    {!analysis} builds the report ({!Analysis.build_result}), and
    {!Incremental.retime} re-evaluates only a dirty cone, landing on
    exactly the state {!propagate} would.

    The graph mirrors a {e mutable} design. After editing the netlist,
    callers must (in order) {!sync_topology} with every net/instance they
    touched, then {!update_rc} each re-extracted net, then re-time. *)

type t

val compile :
  ?config:Analysis.config -> Netlist.Design.t -> Layout.Extract.net_rc array -> t
(** Build the flat mirror and levelize. Raises
    {!Analysis.Combinational_cycle}, naming the first instance (in id
    order) left pending, on a combinational loop. Does not propagate. *)

val compile_partial :
  ?config:Analysis.config -> Netlist.Design.t -> Layout.Extract.net_rc array -> t * int list
(** {!compile}, total on combinational loops: the considered instances
    left pending (loop members and the cone they feed) are dropped from
    evaluation, so their output nets keep [-inf] arrivals, and returned
    in id order ([[]] for a loop-free design). The rest of the design
    times exactly as under {!compile}. *)

val propagate : ?pool:Par.Pool.t -> t -> unit
(** Full from-seed level-ordered propagation. With [pool], level buckets
    fan across the pool with bit-identical results. *)

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

(** {1 Queries} *)

val num_nets : t -> int
val num_insts : t -> int
val level : t -> int -> int
val max_level : t -> int
val elmore : t -> int -> inst:int -> pin:int -> float
val arrival : t -> int -> float
val slew_of : t -> int -> float

(** {1 Required times and slacks} *)

val compute_required : t -> unit
(** Full backward pass: required arrival per net (setup checks at
    sequential data pins, min-propagated through combinational consumers;
    clock-network nets stay [+inf]). *)

val required : t -> int -> float
val net_slack : t -> int -> float option
(** [required - arrival] where both are finite. *)

val slack : t -> Slack.t
(** Endpoint setup slacks, equal to [Slack.report] on the same state. *)

val wns : t -> float

val critical_nets : t -> margin_ps:float -> int list
(** Nets whose slack is within [margin_ps] of the worst net slack —
    the critical-net set of the lint [tpi-timing] pack, over extracted
    parasitics after layout and over zero parasitics before it
    (computes {!compute_required} on demand). Ascending net ids. *)

(**/**)

(* internal surface for Sta.Incremental *)

val reset_net : t -> int -> unit
val reset_slow : t -> int -> unit
val eval_inst : t -> Obs.Metrics.counter -> int -> unit
val out_net : t -> int -> int
val is_timing_input : t -> int -> int -> bool
val required_of : t -> int -> float
val net_level : t -> int -> int
val count_slow : t -> int
val design : t -> Netlist.Design.t
val arrival_arrays : t -> float array * float array * int array * int array
val required_array : t -> float array
val required_is_valid : t -> bool
val set_required_valid : t -> unit
val driver_of : t -> int -> int
val data_sinks_of_clock : t -> int -> int list

(* worklist membership flags, at least [num_insts]/[num_nets] long and
   grown by [sync_topology]; all-false between calls, so a user must
   clear every flag it sets before returning *)
val inst_scratch : t -> bool array
val net_scratch : t -> bool array
