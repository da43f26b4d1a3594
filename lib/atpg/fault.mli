(** Single stuck-at fault model.

    Fault sites live on the full-scan capture model: stems (net values),
    branches (individual gate input pins) and observe branches (the [D]
    pins of flip-flops and primary-output bindings). Faults on scan
    infrastructure pins (TI/TE/TR/CK, clock buffers, unmodelled gates) are
    counted in the universe but covered by the scan shift and flush tests
    rather than by ATPG patterns, as in the paper's flow; they are created
    pre-marked [Chain_tested]. *)

type site =
  | Stem of int              (** net id *)
  | Branch of int * int      (** (gate index in the model, input position) *)
  | Obs_branch of int        (** index into the model's [observes] array *)

type status =
  | Undetected
  | Detected
  | Redundant      (** proven untestable by exhaustive search *)
  | Aborted        (** deterministic search hit its backtrack limit *)
  | Chain_tested   (** covered by scan shift/flush, not by capture patterns *)

type fault = {
  fid : int;
  site : site;
  stuck : bool;            (** the stuck-at value *)
  mutable status : status;
  mutable equiv_to : int;  (** representative fault id after collapsing *)
}

type universe = {
  faults : fault array;             (** ATPG-relevant faults, including collapsed ones *)
  representatives : fault array;    (** one fault per equivalence class *)
  infra_faults : int;               (** chain-tested faults outside the model *)
  total : int;                      (** full universe size, the paper's "#faults" *)
}

val build : Netlist.Cmodel.t -> universe
(** Enumerates and equivalence-collapses the universe. *)

val site_net : Netlist.Cmodel.t -> site -> int
(** The net whose value the fault corrupts (for branches: the gate input
    net; the corruption is local to that pin). *)

val forced_output : Stdcell.Cell.kind -> arity:int -> pos:int -> v:bool -> bool option
(** If pinning input [pos] to [v] forces the gate output to a constant,
    that constant ([v] is a controlling value); [None] otherwise. Also used
    by PODEM to pick non-controlling objective values. *)

val representative : universe -> fault -> fault
(** The class representative after collapsing (path-compressing). *)

val coverage : universe -> float * float
(** (fault coverage, fault efficiency) over the full universe:
    FC = detected / total, FE = (detected + redundant) / total, where
    collapsed classes count all their members and chain-tested faults count
    as detected. *)
