(** Global routing (step 4, Figure 3c).

    Each net gets a rectilinear minimum spanning tree over its terminals
    (Prim; very-high-fanout nets fall back to a snake chain), with every
    tree edge realised as an L-shape over a gcell grid for congestion
    accounting. Total wirelength is the L_wires column of Table 2. *)

type terminal = {
  t_point : Geom.Point.t;
  t_inst : int;  (** instance id, or -1 for a port terminal *)
  t_pin : int;   (** pin index, or port id when [t_inst] = -1 *)
}

type net_route = {
  terminals : terminal array;  (** index 0 is the driver *)
  parent : int array;          (** spanning tree; parent.(0) = -1 *)
  length : float;              (** um *)
}

type t = {
  routes : net_route option array;  (** by net id; None for degenerate nets *)
  total_wirelength : float;
  gcell_um : float;
  usage_h : int array array;   (** [row][col] horizontal track demand *)
  usage_v : int array array;
  overflowed_gcells : int;
}

val run : ?gcell_um:float -> ?capacity:int -> Place.t -> t
(** Defaults: 20 um gcells, 14 tracks per direction. *)

val route_net : Place.t -> Netlist.Design.net -> net_route option
(** Route one net in isolation: pure (no metrics, no congestion
    accounting) and deterministic in the placement and the net's
    driver/sink order, so patching one net after an ECO reproduces
    exactly the route a whole-design {!run} would give it. [None] for
    degenerate (driverless or single-terminal) nets. *)

val rebuild_stats : Place.t -> net_route option array -> t
(** Recompute wirelength, congestion and overflow from a routes array
    whose entries were patched net by net; equal to what {!run} on its
    default grid would build had it produced the same routes. Moves no [route.*] counters
    (it does no routing work), but refreshes the overflow gauge. *)
