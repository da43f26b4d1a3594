(** Parallel-pattern single-fault propagation (PPSFP) simulator.

    Simulates 64 patterns at once as bit-packed words over the capture
    model: one good-circuit pass, then per-fault event-driven propagation
    limited to the fault's fanout cone. [detect_mask] returns the set of
    patterns (bit per pattern) that detect a fault, which the
    pattern-generation driver uses both to drop faults and to pick compact
    pattern subsets.

    The words are unboxed: good and faulty values are 64-bit words in
    [Bytes], and gates are flat arrays (kind, three input slots, output,
    level) evaluated by one inlined word function. The faulty words are a
    copy of the good ones that a fault's propagation edits and then
    restores. A gate wider than three inputs is simulated from its first
    three, which are all any kind reads, as {!Stdcell.Cell.eval64} does.
    After [create], nothing is allocated per gate or per net: a
    [detect_mask] call boxes only the mask it returns. *)

type t

val create : Netlist.Cmodel.t -> t

val model : t -> Netlist.Cmodel.t

val num_sources : t -> int

val set_sources : t -> int64 array -> unit
(** One word per model source (same order as [model.sources]); bit [p] of
    word [s] is the value of source [s] in pattern [p]. Runs the
    good-circuit simulation. *)

val good : t -> int -> int64
(** Good-circuit value of a net after [set_sources]. *)

val detect_mask : t -> Fault.fault -> int64
(** Patterns among the current batch that detect the fault. *)

val detects : t -> Fault.fault -> bool
