(** Worklist-driven incremental STA on top of {!Tgraph} (the ROADMAP's
    "re-time only the affected cone").

    Contract (DESIGN.md §6.6): after a netlist/layout edit, the caller
    {!Tgraph.sync_topology}s every touched net and instance, then
    {!Tgraph.update_rc}s every re-extracted net, then calls {!retime}
    with those same sets. The graph then holds {e exactly} the state a
    full {!Tgraph.propagate} would produce — bit for bit, including
    provenance and slow-node flags — because a cone
    re-evaluation resets each output net to its seed and replays the
    driver's arcs in declaration order, and stops at nets whose
    (arrival, slew, provenance) came out bitwise unchanged.

    Bookkeeping lands in [sta.incremental.*] counters only; the
    whole-graph counters ([sta.arcs_evaluated], ...) are never touched. *)

type stats = {
  insts_evaluated : int;   (** instances re-evaluated forward *)
  nets_changed : int;      (** nets whose (arrival, slew, provenance) moved *)
  nets_settled : int;      (** re-evaluated outputs that came out unchanged *)
  required_patched : int;  (** nets whose required time was recomputed *)
}

val retime : Tgraph.t -> dirty_nets:int list -> dirty_insts:int list -> stats
(** Re-time the cone downstream of the dirty sets. Required times are
    patched backward only if {!Tgraph.compute_required} had been run
    (otherwise they stay uncomputed and [required_patched] is 0). *)
