(** SCOAP testability measures (Goldstein 1979) on the full-scan capture
    model. Combinational controllabilities CC0/CC1 and observability CO,
    computed per net; gate rules are derived from the cell logic functions
    by exhaustive enumeration (cells have arity <= 3), so every library
    kind is handled uniformly. *)

type t = {
  cc0 : float array;  (** by net id; cost of setting the net to 0 *)
  cc1 : float array;
  co : float array;   (** cost of observing the net *)
}

val infinity_cost : float
(** Cost assigned to unreachable/unobservable nets. *)

val compute : Netlist.Cmodel.t -> t
