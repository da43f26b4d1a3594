(** Testability cost: the scalar objective test point insertion lowers.

    Following Seiss/Trouborst/Schulz (ETC 1991), the cost of a circuit is
    the expected number of random patterns needed per fault,
    [U = mean over faults of 1 / detection probability]; detection
    probabilities come from COP. TPI greedily inserts points that cut [U]. *)

type t = {
  detect0 : float array;  (** per net: detection probability of s-a-0 *)
  detect1 : float array;
}

val compute : Netlist.Cmodel.t -> Cop.t -> t

val fault_cost : float -> float
(** [1 / p], capped to keep untestable faults finite. *)

val global_cost : t -> Netlist.Cmodel.t -> float
(** Mean fault cost over both polarities of all modelled nets. *)
