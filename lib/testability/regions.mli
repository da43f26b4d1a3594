(** Fanout-free regions (FFRs).

    An FFR is a maximal tree of gates whose internal nets have fanout 1; its
    head net is either a fanout stem or an observed site. The paper's TPI
    method uses FFR sizes as one of the measures deciding where to insert
    test points (one observation point at an FFR head covers the whole
    region). *)

type t = {
  head_of_net : int array;  (** net id -> head net id of its FFR; -1 if unmodelled *)
  size_of_head : int array;  (** net id -> #gates in its region if a head, else 0 *)
}

val compute : Netlist.Cmodel.t -> t

val heads : t -> int list
(** All FFR head nets that own at least one gate, ascending. *)

val size : t -> int -> int
(** [size t head] = gates in the region; 0 for unknown heads. *)
